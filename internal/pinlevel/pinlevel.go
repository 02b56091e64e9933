// Package pinlevel implements pin-level fault injection for THOR-S in the
// style of RIFLE and MESSALINE (paper §1): faults are forced onto the
// circuit pins — here through the boundary-scan register via EXTEST, as
// the paper's composable building blocks allow (§2.1). The fault space is
// the data-in and address pins; a fault is forced at the trigger point and
// held for a configurable number of cycles.
package pinlevel

import (
	"fmt"

	"goofi/internal/asm"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scanchain"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// DefaultHoldCycles is how long a forced pin fault stays on the pins
// before being released.
const DefaultHoldCycles = 64

// Target drives THOR-S through its boundary-scan register. It reuses the
// SCIFI target for everything except the injection path: ReadScanChain
// samples the boundary register, InjectFault computes the forced pins, and
// WriteScanChain drives them via EXTEST.
type Target struct {
	*scifi.Target
	holdCycles uint64
	forced     bool
}

// New returns a pin-level target.
func New(cfg thor.Config) *Target {
	return &Target{Target: scifi.New(cfg), holdCycles: DefaultHoldCycles}
}

// dataInField locates the pin.data_in cells in the boundary register.
func dataInField() (scanchain.Location, error) {
	m := scifi.BoundaryMap()
	return m.Find("pin.data_in")
}

// addrField locates the pin.addr cells.
func addrField() (scanchain.Location, error) {
	m := scifi.BoundaryMap()
	return m.Find("pin.addr")
}

// ReadScanChain samples the boundary register instead of the internal
// chain (pins are the pin-level fault space).
func (t *Target) ReadScanChain(ex *core.Experiment) error {
	v, err := t.Controller().SampleBoundary()
	if err != nil {
		return err
	}
	ex.ScanVector = v
	return nil
}

// WriteScanChain drives the (mutated) boundary register onto the pins via
// EXTEST; the force remains active until released after holdCycles.
func (t *Target) WriteScanChain(ex *core.Experiment) error {
	if ex.ScanVector == nil {
		return fmt.Errorf("pinlevel: WriteScanChain with no boundary vector")
	}
	if ex.Fault == nil || !ex.Injected {
		return nil
	}
	di, err := dataInField()
	if err != nil {
		return err
	}
	ad, err := addrField()
	if err != nil {
		return err
	}
	var dataMask, addrMask uint32
	for _, b := range ex.Fault.Bits {
		switch {
		case b >= di.Offset && b < di.End():
			dataMask |= 1 << uint(b-di.Offset)
		case b >= ad.Offset && b < ad.End():
			addrMask |= 1 << uint(b-ad.Offset)
		default:
			return fmt.Errorf("pinlevel: fault bit %d targets a non-forceable pin", b)
		}
	}
	if err := t.CPU().BoundaryWrite(ex.ScanVector, dataMask, addrMask); err != nil {
		return err
	}
	t.forced = true
	return nil
}

// WaitForTermination releases the pin force after holdCycles (a transient
// pin fault), then defers to the SCIFI termination loop.
func (t *Target) WaitForTermination(ex *core.Experiment) error {
	if t.forced {
		budget := t.holdCycles
		st := t.CPU().Run(budget)
		t.CPU().ClearBoundaryForce()
		t.forced = false
		if st == thor.StatusOutOfBudget {
			if err := t.CPU().ClearOutOfBudget(); err != nil {
				return err
			}
		}
		// Other statuses (halt/detected/iteration-end) fall through to
		// the SCIFI loop, which handles them.
	}
	return t.Target.WaitForTermination(ex)
}

// InitTestCard resets the board and the force state.
func (t *Target) InitTestCard(ex *core.Experiment) error {
	t.forced = false
	return t.Target.InitTestCard(ex)
}

// TargetSystemData returns the configuration-phase record for pin-level
// campaigns: only the forceable pins are writable.
func TargetSystemData(name string) *campaign.TargetSystemData {
	m := scifi.BoundaryMap()
	for i := range m.Locations {
		switch m.Locations[i].Name {
		case "pin.data_in", "pin.addr":
		default:
			m.Locations[i].ReadOnly = true
		}
	}
	return &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "thor-s-pinlevel-rig",
		Chains:       []scanchain.Map{m},
		Description:  "THOR-S pins forced through boundary-scan EXTEST",
	}
}

// ImageSize is a helper for campaigns: the assembled size of a workload.
func ImageSize(source string) (int, error) {
	prog, err := asm.AssembleCached(source)
	if err != nil {
		return 0, err
	}
	return len(prog.Image), nil
}

// Interface compliance.
var _ core.TargetSystem = (*Target)(nil)
