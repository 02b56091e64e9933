// Package runspec is the one path from "campaign + run settings" to a
// running core.Runner. A Spec is serialisable: `goofi run` stores its
// Settings next to the campaign so `goofi resume` repeats them, goofid
// derives a Spec from each submission, and shard leases carry it to the
// workers. Build turns a Spec into a runner the same way for every one
// of them, and Run owns the fresh-run reset and the teardown they share.
//
// Chaos settings are deliberately absent. A flaky harness is a property
// of one invocation, not of the campaign, and the chaos package imports
// shard, which imports this one; callers wrap boards themselves.
package runspec

import (
	"context"
	"encoding/json"
	"fmt"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/preinject"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
)

// ForwardOff turns checkpoint forwarding off; "" leaves it on.
const ForwardOff = "off"

// Settings decide what a campaign executes: the target and algorithm,
// the injections the pre-injection filter admits, and whether checkpoint
// forwarding is on. They are persisted with the campaign and
// replayed by resume. The zero value is the default run.
type Settings struct {
	// TargetKind names a registered target system or alias; Technique
	// names the injection algorithm. Either alone is enough (Resolve).
	TargetKind string `json:"targetKind,omitempty"`
	Technique  string `json:"technique,omitempty"`
	// TargetParams is the target's key=value configuration, including
	// image-bytes (swifi) and fastpath=off (scifi).
	TargetParams map[string]string `json:"targetParams,omitempty"`
	// PreInjection enables the paper §4 liveness filter.
	PreInjection bool `json:"preInjection,omitempty"`
	// Forwarding is "" (on) or ForwardOff. Rows stored while a second
	// checkpoint placement existed may hold "interval" or "optimal";
	// both mean on, since placement never changed a logged record.
	Forwarding string `json:"forwarding,omitempty"`
}

// Harness holds the per-invocation settings. They change how a run is
// executed, never which records it logs, so every invocation sets its
// own and none is persisted.
type Harness struct {
	// Boards sizes the board pool (<= 0 means one). Shard workers size
	// their own pool instead.
	Boards int `json:"boards,omitempty"`
	// Checkpoint is the durable-cursor interval in experiments; 0
	// disables crash recovery.
	Checkpoint int `json:"checkpoint,omitempty"`
	// Retry is the retry, circuit-breaker and watchdog policy; the zero
	// value fails the campaign on its first harness error.
	Retry core.RetryPolicy `json:"retry"`
}

// Spec is everything besides the campaign that a runner is built from.
type Spec struct {
	Settings
	Harness
}

// Resolve picks the registered target, resolving aliases, and the
// algorithm. A bare technique selects the like-named target, a bare
// kind runs its own algorithm, and neither means scifi.
func (s Settings) Resolve() (core.TargetInfo, core.Algorithm, error) {
	kind := s.TargetKind
	if kind == "" {
		kind = s.Technique
	}
	if kind == "" {
		kind = "scifi"
	}
	info, ok := core.LookupTarget(kind)
	if !ok {
		return core.TargetInfo{}, core.Algorithm{}, fmt.Errorf("unknown target %q (see 'goofi targets')", kind)
	}
	technique := s.Technique
	if technique == "" {
		technique = info.Algorithm
	}
	alg, ok := core.Algorithms()[technique]
	if !ok {
		return core.TargetInfo{}, core.Algorithm{}, fmt.Errorf("unknown technique %q", technique)
	}
	return info, alg, nil
}

// SystemData builds the target system configuration (scan-chain maps)
// for a target named targetName.
func (s Settings) SystemData(targetName string) (*campaign.TargetSystemData, error) {
	info, _, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	return info.SystemData(targetName, core.TargetConfig{Params: s.TargetParams})
}

func (s Settings) forwarding() (core.ForwardConfig, error) {
	switch s.Forwarding {
	case "", "interval", "optimal":
		return core.ForwardConfig{}, nil
	case ForwardOff:
		return core.ForwardConfig{Disabled: true}, nil
	}
	return core.ForwardConfig{}, fmt.Errorf("unknown forwarding %q (want \"\" or %q)", s.Forwarding, ForwardOff)
}

// Load returns a campaign's stored settings. A campaign that has none
// (run before settings were stored) gets the zero, default settings.
func Load(st *campaign.Store, name string) (Settings, error) {
	var s Settings
	blob, err := st.RunSpec(name)
	if err != nil || blob == nil {
		return s, err
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("runspec: decode settings of %q: %w", name, err)
	}
	return s, nil
}

// Reset gives a campaign the clean slate of a fresh run: previous
// results, phase spans and any stale cursor go, and s becomes its stored
// settings.
func Reset(st *campaign.Store, name string, s Settings) error {
	if err := st.DeleteCheckpoint(name); err != nil {
		return err
	}
	if err := st.DeleteExperiments(name); err != nil {
		return err
	}
	if err := st.DeleteTelemetry(name); err != nil {
		return err
	}
	blob, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return st.PutRunSpec(name, blob)
}

// Attach is what a caller adds around a built runner. None of it
// changes the logged records.
type Attach struct {
	// Options are applied after the spec's own: fleet, shard range,
	// forward set, telemetry, progress.
	Options []core.RunnerOption
	// WrapBoard, when set, wraps every board the factory builds.
	WrapBoard func(core.TargetSystem) core.TargetSystem
	// WrapSink, when set, wraps the batching sink the runner logs to.
	WrapSink func(*campaign.BatchingSink) core.ResultSink
}

// Run is one built campaign execution.
type Run struct {
	Runner *core.Runner
	// Sink batches the runner's records; Finish drains it.
	Sink *campaign.BatchingSink
	// Resumed counts the experiments an earlier run made durable.
	Resumed int

	st    *campaign.Store
	camp  *campaign.Campaign
	set   Settings
	fresh bool
}

// Build constructs the runner for camp, whose target system must be in
// st. A resume cursor holding the reference or any completed experiment
// continues that run; otherwise the run starts fresh.
func Build(st *campaign.Store, camp *campaign.Campaign, spec Spec, resume *campaign.Checkpoint, at Attach) (*Run, error) {
	info, alg, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	fw, err := spec.forwarding()
	if err != nil {
		return nil, err
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		return nil, err
	}
	// Build one board eagerly so a bad target configuration fails here
	// with a real error instead of panicking inside the board pool;
	// later constructions reuse the same config, so a failure there is a
	// programming error the runner's recovery layer converts to a wedge.
	cfg := core.TargetConfig{Params: spec.TargetParams}
	if _, err := info.New(cfg); err != nil {
		return nil, fmt.Errorf("target %q: %w", info.Kind, err)
	}
	factory := func() core.TargetSystem {
		ts, err := info.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("target %q factory: %v", info.Kind, err))
		}
		if at.WrapBoard != nil {
			ts = at.WrapBoard(ts)
		}
		return ts
	}
	opts := []core.RunnerOption{
		core.WithBoards(max(spec.Boards, 1), factory),
		core.WithForwarding(fw),
		core.WithRetryPolicy(spec.Retry),
	}
	if spec.Checkpoint > 0 {
		opts = append(opts, core.WithCheckpoints(spec.Checkpoint))
	}
	if spec.PreInjection {
		a, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), camp)
		if err != nil {
			return nil, fmt.Errorf("pre-injection analysis: %w", err)
		}
		opts = append(opts, core.WithInjectionFilter(a.Filter()))
	}
	run := &Run{st: st, camp: camp, set: spec.Settings, fresh: true}
	if resume != nil && (resume.Reference || len(resume.Completed) > 0) {
		opts = append(opts, core.WithResume(resume))
		run.Resumed, run.fresh = len(resume.Completed), false
	}
	run.Sink = campaign.NewBatchingSink(st, 0)
	var sink core.ResultSink = run.Sink
	if at.WrapSink != nil {
		sink = at.WrapSink(run.Sink)
	}
	opts = append(append(opts, core.WithSink(sink)), at.Options...)
	if run.Runner, err = core.NewRunner(factory(), alg, camp, tsd, opts...); err != nil {
		run.Sink.Close()
		return nil, err
	}
	return run, nil
}

// Execute runs the campaign, resetting it first when the run is fresh.
func (r *Run) Execute(ctx context.Context) (*core.Summary, error) {
	if r.fresh {
		if err := Reset(r.st, r.camp.Name, r.set); err != nil {
			return nil, err
		}
	}
	return r.Runner.Run(ctx)
}

// Finish is the clean teardown: drain the sink, store the tracer's
// spans, clear the cursor of a campaign that is now complete, and
// compact the database. It reports whether the campaign is complete.
func (r *Run) Finish(sum *core.Summary, tr *telemetry.Tracer) (complete bool, err error) {
	if err := r.Sink.Close(); err != nil {
		return false, err
	}
	if err := r.st.LogTelemetry(r.camp.Name, tr.Drain()); err != nil {
		return false, err
	}
	complete = r.Resumed+sum.Experiments >= r.camp.NumExperiments
	if complete {
		if err := r.st.DeleteCheckpoint(r.camp.Name); err != nil {
			return false, err
		}
	}
	return complete, r.st.DB().Checkpoint()
}
