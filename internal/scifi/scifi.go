// Package scifi implements the TargetSystemInterface for a test board
// built around the THOR-S microprocessor, driven through its IEEE 1149.1
// test logic — the paper's concrete instantiation (§3): faults are
// injected by stopping the workload at a trigger point, shifting the
// internal scan chains out, flipping bits, shifting them back, and running
// to a termination condition while logging system state.
package scifi

import (
	"fmt"

	"goofi/internal/asm"
	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/scanchain"
	"goofi/internal/thor"
	"goofi/internal/trigger"
)

// IDCode is the JTAG identification code of the THOR-S device.
const IDCode uint32 = 0x5448_0153 // "TH\x01S"

// runSlice is the cycle granularity at which WaitForTermination checks
// termination conditions and reasserts persistent faults.
const runSlice = 4096

// device adapts the THOR-S CPU to the scanchain.Device interface.
type device struct {
	cpu *thor.CPU
	// extestDataMask/extestAddrMask select the pins EXTEST drives; the
	// pin-level injector sets them before updating the boundary register.
	extestDataMask uint32
	extestAddrMask uint32
}

func (d *device) BoundaryLen() int                { return thor.BoundaryLen() }
func (d *device) CaptureBoundary() *bitvec.Vector { return d.cpu.BoundaryRead() }
func (d *device) InternalLen() int                { return thor.ScanLen() }
func (d *device) CaptureInternal() *bitvec.Vector { return d.cpu.ScanRead() }
func (d *device) IDCode() uint32                  { return IDCode }

// CaptureInternalInto lets the TAP reuse its DR shift register across
// internal scans (scanchain.InternalCapturerInto).
func (d *device) CaptureInternalInto(v *bitvec.Vector) error { return d.cpu.ScanReadInto(v) }

func (d *device) UpdateBoundary(v *bitvec.Vector) error {
	return d.cpu.BoundaryWrite(v, d.extestDataMask, d.extestAddrMask)
}

func (d *device) UpdateInternal(v *bitvec.Vector) error { return d.cpu.ScanWrite(v) }

// Target is the THOR-S target system. It implements every abstract method
// used by the SCIFI, pin-level and SWIFI algorithms; one Target drives one
// simulated board and is not safe for concurrent campaigns.
type Target struct {
	core.Framework

	cpu  *thor.CPU
	dev  *device
	ctrl *scanchain.Controller
	envs *envsim.Registry

	// per-experiment state, reset by InitTestCard
	prog             *asm.Program
	trig             trigger.Trigger
	sim              envsim.Simulator
	iteration        int
	recovered        int
	detailStep       int
	atInjectionPoint bool

	// campaign-scoped checkpoint-forwarding state; preserved across
	// InitTestCard, managed through the core.Forwarder methods.
	fwRec *fwRecorder
	fwSet *core.ForwardSet
	// scanScratch is the reusable scan vector for the per-slice hot
	// paths (persistent-fault reassertion, detail-mode state capture).
	scanScratch *bitvec.Vector

	// fastPath selects thor's batched execution mode for trigger waits
	// and termination runs (byte-identical to cycle-accurate execution;
	// see internal/thor/cpu_fastpath.go). On by default; NoFastPath
	// turns it off for A/B benchmarking and differential suites.
	fastPath bool
}

// Option configures a Target.
type Option func(*Target)

// New returns a target over a fresh THOR-S board.
func New(cfg thor.Config, opts ...Option) *Target {
	t := &Target{
		Framework: core.Framework{TargetName: "thor-s-board"},
		envs:      envsim.NewRegistry(),
		fastPath:  true,
	}
	for _, o := range opts {
		o(t)
	}
	t.cpu = thor.New(cfg)
	t.dev = &device{cpu: t.cpu}
	t.ctrl = scanchain.NewController(t.dev)
	return t
}

// NoFastPath disables thor's batched fast-path execution and runs every
// cycle through the cycle-accurate Step path. Outcomes are identical
// either way (pinned by the differential suites); this exists for A/B
// benchmarking and belt-and-braces verification runs.
func NoFastPath() Option {
	return func(t *Target) { t.fastPath = false }
}

// CPU exposes the underlying processor for tests and the pre-injection
// analysis.
func (t *Target) CPU() *thor.CPU { return t.cpu }

// Controller exposes the scan-chain controller.
func (t *Target) Controller() *scanchain.Controller { return t.ctrl }

// ChainMap returns the scan-chain map of the THOR-S internal chain, as
// entered in the configuration phase (paper Fig 5).
func ChainMap() scanchain.Map {
	layout := thor.ScanLayout()
	m := scanchain.Map{Chain: "internal", Length: thor.ScanLen()}
	for _, f := range layout {
		m.Locations = append(m.Locations, scanchain.Location{
			Name: f.Name, Offset: f.Offset, Width: f.Width, ReadOnly: f.ReadOnly,
		})
	}
	return m
}

// BoundaryMap returns the boundary-scan map (for pin-level campaigns).
func BoundaryMap() scanchain.Map {
	m := scanchain.Map{Chain: "boundary", Length: thor.BoundaryLen()}
	for _, f := range thor.BoundaryPinLayout() {
		m.Locations = append(m.Locations, scanchain.Location{
			Name: f.Name, Offset: f.Offset, Width: f.Width, ReadOnly: f.ReadOnly,
		})
	}
	return m
}

// TargetSystemData returns the complete configuration-phase record for
// this target, ready to store in TargetSystemData.
func TargetSystemData(name string) *campaign.TargetSystemData {
	return &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "thor-s-testcard",
		Chains:       []scanchain.Map{ChainMap(), BoundaryMap()},
		Description:  "THOR-S microprocessor board with IEEE 1149.1 test logic",
	}
}

// InitTestCard resets the board: TAP and controller reset, CPU to
// power-on state, memory cleared, per-experiment state discarded. The
// controller is reset in place (byte-identical to a fresh controller,
// pinned by TestControllerResetMatchesFresh, but without reallocating
// its multi-kilobit scratch vector on the per-experiment hot path)
// before the CPU is reconfigured so no stale scan traffic can touch the
// fresh CPU state, and trap handlers and breakpoints — which survive a
// bare CPU reset — are cleared explicitly: a reused board must behave
// identically to a fresh one.
func (t *Target) InitTestCard(ex *core.Experiment) error {
	t.ctrl.Reset()
	t.cpu.Reset()
	t.cpu.ClearMemory()
	t.cpu.ClearTrapHandlers()
	t.cpu.ClearBreakpoints()
	t.cpu.TraceHook = nil
	t.prog = nil
	t.trig = nil
	t.sim = nil
	t.iteration = 0
	t.recovered = 0
	t.detailStep = 0
	t.atInjectionPoint = false
	return nil
}

// LoadWorkload assembles the campaign's workload source. Assembly output
// is cached by source hash: every experiment of a campaign shares one
// immutable Program, and only the memory image download is per-run.
func (t *Target) LoadWorkload(ex *core.Experiment) error {
	prog, err := asm.AssembleCached(ex.Campaign.Workload.Source)
	if err != nil {
		return fmt.Errorf("scifi: assemble workload %q: %w", ex.Campaign.Workload.Name, err)
	}
	t.prog = prog
	return nil
}

// WriteMemory downloads the workload image and the initial input data,
// and installs any recovery trap handlers.
func (t *Target) WriteMemory(ex *core.Experiment) error {
	if t.prog == nil {
		return fmt.Errorf("scifi: WriteMemory before LoadWorkload")
	}
	if err := t.cpu.LoadMemory(0, t.prog.Image); err != nil {
		return err
	}
	wl := &ex.Campaign.Workload
	for code, symbol := range wl.RecoveryHandlers {
		addr, err := t.prog.Symbol(symbol)
		if err != nil {
			return fmt.Errorf("scifi: recovery handler: %w", err)
		}
		t.cpu.SetTrapHandler(code, addr)
	}
	if ex.Campaign.EnvSim != nil {
		sim, err := t.envs.New(ex.Campaign.EnvSim.Name, ex.Campaign.EnvSim.Params)
		if err != nil {
			return err
		}
		t.sim = sim
		// Initial input data (paper §3.3: "the workload and initial
		// input data is downloaded").
		t.fwLogExchange(ex, nil)
		t.cpu.Ports().PushInput(wl.InputPort, sim.Exchange(nil)...)
	}
	return nil
}

// RunWorkload arms the experiment: the injection trigger is built and the
// detail-mode trace hook installed. On the simulated board execution is
// demand-driven, so "starting" the workload means arming it.
func (t *Target) RunWorkload(ex *core.Experiment) error {
	if !ex.IsReference() {
		trig, err := ex.Trigger.Build()
		if err != nil {
			return err
		}
		trig.Reset()
		t.trig = trig
	}
	if ex.DetailSink != nil {
		t.installDetailHook(ex)
	}
	return nil
}

// installDetailHook logs the observable system state after every machine
// instruction (detail mode, paper §3.3).
func (t *Target) installDetailHook(ex *core.Experiment) {
	t.cpu.TraceHook = func(c *thor.CPU) {
		sv, err := t.captureState(ex)
		if err != nil {
			return
		}
		_ = ex.DetailSink(t.detailStep, sv)
		t.detailStep++
	}
}

// WaitForBreakpoint runs until the injection trigger fires, exchanging
// environment data at iteration boundaries. If the workload terminates
// before the trigger fires, the experiment proceeds without injection
// (the fault's time point was never reached).
func (t *Target) WaitForBreakpoint(ex *core.Experiment) error {
	if t.trig == nil {
		return fmt.Errorf("scifi: WaitForBreakpoint before RunWorkload")
	}
	// Fast-forward over the fault-free prefix when a recorded checkpoint
	// covers this experiment's injection point (no-op otherwise).
	t.fwRestore(ex)
	budget := ex.Campaign.Termination.TimeoutCycles
	for {
		var fired bool
		var st thor.Status
		if t.fastPath {
			fired, st = trigger.RunUntilFast(t.cpu, t.trig, ex.Trigger, remaining(budget, t.cpu.Cycle()))
		} else {
			fired, st = trigger.RunUntil(t.cpu, t.trig, remaining(budget, t.cpu.Cycle()))
		}
		if fired {
			ex.InjectionCycle = t.cpu.Cycle()
			t.atInjectionPoint = true
			return nil
		}
		switch st {
		case thor.StatusIterationEnd:
			if err := t.exchange(ex); err != nil {
				return err
			}
		case thor.StatusRunning:
			// Timeout budget exhausted before the trigger fired.
			return nil
		default:
			// Halted or detected before the injection point.
			return nil
		}
	}
}

// InjectFault applies the fault to the scan vector, but only when the
// injection point was actually reached: if the workload terminated before
// the trigger fired, the fault's time point never occurred and the
// experiment is logged as not injected.
func (t *Target) InjectFault(ex *core.Experiment) error {
	if !t.atInjectionPoint {
		return nil
	}
	return t.Framework.InjectFault(ex)
}

// ReadScanChain captures the internal scan chain into the experiment.
func (t *Target) ReadScanChain(ex *core.Experiment) error {
	v, err := t.ctrl.ReadInternal()
	if err != nil {
		return err
	}
	ex.ScanVector = v
	return nil
}

// WriteScanChain writes the experiment's scan vector back to the device.
func (t *Target) WriteScanChain(ex *core.Experiment) error {
	if ex.ScanVector == nil {
		return fmt.Errorf("scifi: WriteScanChain with no scan vector")
	}
	return t.ctrl.WriteInternal(ex.ScanVector)
}

// exchange performs one environment-simulator data exchange at an
// iteration boundary and resumes the CPU.
func (t *Target) exchange(ex *core.Experiment) error {
	wl := &ex.Campaign.Workload
	outs := t.cpu.Ports().DrainOutput(wl.OutputPort)
	if ex.Result.Outputs == nil {
		ex.Result.Outputs = make(map[uint16][]uint32)
	}
	ex.Result.Outputs[wl.OutputPort] = append(ex.Result.Outputs[wl.OutputPort], outs...)
	if t.sim != nil {
		t.fwLogExchange(ex, outs)
		t.cpu.Ports().PushInput(wl.InputPort, t.sim.Exchange(outs)...)
	}
	t.iteration++
	return t.cpu.ResumeIteration()
}

// WaitForTermination resumes execution until a termination condition
// occurs: time-out, error detection, workload end, or the iteration limit
// (paper §3.2), reasserting persistent faults and exchanging environment
// data along the way.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	term := ex.Campaign.Termination
	persistent := ex.Fault != nil && ex.Fault.Kind.Persistent() && ex.Injected
	for {
		if t.cpu.Cycle() >= term.TimeoutCycles {
			t.finishOutcome(ex, campaign.OutcomeTimeout, nil)
			return nil
		}
		// At the loop top the CPU is at an instruction boundary in the
		// Running state: the place to capture forwarding checkpoints.
		// The slice budget is shaped so the run stops at the next
		// planned cycle (a no-op outside a recording reference run).
		t.fwMaybeRecord(ex)
		st := t.runCPU(t.fwSliceBudget(ex, minU64(runSlice, term.TimeoutCycles-t.cpu.Cycle())))
		switch st {
		case thor.StatusHalted:
			t.finishOutcome(ex, campaign.OutcomeCompleted, nil)
			return nil
		case thor.StatusDetected:
			t.finishOutcome(ex, campaign.OutcomeDetected, t.cpu.Detection())
			return nil
		case thor.StatusIterationEnd:
			if term.MaxIterations > 0 && t.iteration+1 >= term.MaxIterations {
				// Final iteration completed: drain outputs and end.
				wl := &ex.Campaign.Workload
				outs := t.cpu.Ports().DrainOutput(wl.OutputPort)
				if ex.Result.Outputs == nil {
					ex.Result.Outputs = make(map[uint16][]uint32)
				}
				ex.Result.Outputs[wl.OutputPort] = append(ex.Result.Outputs[wl.OutputPort], outs...)
				t.iteration++
				t.finishOutcome(ex, campaign.OutcomeCompleted, nil)
				return nil
			}
			if err := t.exchange(ex); err != nil {
				return err
			}
			if persistent {
				if err := t.reassert(ex); err != nil {
					return err
				}
			}
		case thor.StatusOutOfBudget:
			if err := t.cpu.ClearOutOfBudget(); err != nil {
				return err
			}
			if persistent {
				if err := t.reassert(ex); err != nil {
					return err
				}
			}
		case thor.StatusBreakpoint:
			// No breakpoints are armed during termination; continue.
		default:
			return fmt.Errorf("scifi: unexpected status %v during termination", st)
		}
	}
}

// reassert re-applies a persistent fault through the scan chain, reusing
// the target's scratch vector: this runs once per slice for the whole
// faulty remainder of the run.
func (t *Target) reassert(ex *core.Experiment) error {
	v := t.scanVectorScratch()
	if err := t.ctrl.ReadInternalInto(v); err != nil {
		return err
	}
	ex.Fault.Apply(v, ex.RNG)
	return t.ctrl.WriteInternal(v)
}

// scanVectorScratch returns the target's reusable internal-chain vector.
func (t *Target) scanVectorScratch() *bitvec.Vector {
	if t.scanScratch == nil || t.scanScratch.Len() != thor.ScanLen() {
		t.scanScratch = bitvec.New(thor.ScanLen())
	}
	return t.scanScratch
}

// finishOutcome fills the experiment outcome.
func (t *Target) finishOutcome(ex *core.Experiment, status campaign.OutcomeStatus, det *thor.Detection) {
	out := campaign.Outcome{
		Status:     status,
		Cycles:     t.cpu.Cycle(),
		Iterations: t.iteration,
	}
	if det != nil {
		out.Mechanism = det.Mechanism.String()
		out.DetectionCycle = det.Cycle
	}
	for _, ev := range t.cpu.Events() {
		if ev.Mechanism == thor.EDMAssertion && (det == nil || ev.Cycle != det.Cycle) {
			out.Recovered++
		}
	}
	// Drain any outputs emitted since the last exchange.
	wl := &ex.Campaign.Workload
	outs := t.cpu.Ports().DrainOutput(wl.OutputPort)
	if len(outs) > 0 {
		if ex.Result.Outputs == nil {
			ex.Result.Outputs = make(map[uint16][]uint32)
		}
		ex.Result.Outputs[wl.OutputPort] = append(ex.Result.Outputs[wl.OutputPort], outs...)
	}
	ex.Result.Outcome = out
}

// ReadMemory reads the workload's result symbols back from target memory.
func (t *Target) ReadMemory(ex *core.Experiment) error {
	if t.prog == nil {
		return fmt.Errorf("scifi: ReadMemory before LoadWorkload")
	}
	wl := &ex.Campaign.Workload
	words := wl.ResultWords
	if words <= 0 {
		words = 1
	}
	if ex.Result.Memory == nil {
		ex.Result.Memory = make(map[string][]byte, len(wl.ResultSymbols))
	}
	for _, sym := range wl.ResultSymbols {
		addr, err := t.prog.Symbol(sym)
		if err != nil {
			return fmt.Errorf("scifi: result symbol: %w", err)
		}
		b, err := t.cpu.ReadMemory(addr, words*4)
		if err != nil {
			return err
		}
		ex.Result.Memory[sym] = b
	}
	return nil
}

// captureState samples the observable system state for detail-mode
// logging: the scan chain (host-side read so the run is not perturbed)
// and current outputs.
func (t *Target) captureState(ex *core.Experiment) (*campaign.StateVector, error) {
	v := t.scanVectorScratch()
	if err := t.cpu.ScanReadInto(v); err != nil {
		return nil, err
	}
	scan, err := v.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sv := &campaign.StateVector{Scan: scan}
	wl := &ex.Campaign.Workload
	if outs := t.cpu.Ports().PeekOutput(wl.OutputPort); len(outs) > 0 {
		sv.Outputs = map[uint16][]uint32{wl.OutputPort: outs}
	}
	return sv, nil
}

// runCPU runs one execution slice through the selected execution mode.
func (t *Target) runCPU(cycleBudget uint64) thor.Status {
	if t.fastPath {
		return t.cpu.RunFast(cycleBudget)
	}
	return t.cpu.Run(cycleBudget)
}

func remaining(budget, used uint64) uint64 {
	if used >= budget {
		return 0
	}
	return budget - used
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Interface compliance.
var _ core.TargetSystem = (*Target)(nil)
