package core

import "goofi/internal/campaign"

// Checkpoint-based fast-forwarding. Every experiment of a campaign
// executes the same deterministic fault-free prefix up to its injection
// point. The runner therefore records checkpoints of the board state at
// planner-chosen cycles during the reference run; each faulty experiment
// then restores the nearest checkpoint at or before its injection cycle
// and emulates only the delta, instead of replaying the whole prefix.
// When no usable checkpoint exists — forwarding disabled, a trigger whose
// firing depends on the execution prefix, pin-level forcing active — the
// experiment falls back transparently to a cold start. Logged results are
// byte-identical either way; only the emulated cycle count changes.

// ForwardConfig tunes checkpoint forwarding. The zero value enables
// forwarding; set Disabled to opt out.
type ForwardConfig struct {
	// Disabled turns checkpoint forwarding off entirely.
	Disabled bool
}

// Planner limits.
const (
	// DefaultMaxForwardCheckpoints bounds the checkpoint count.
	DefaultMaxForwardCheckpoints = 64
	// DefaultMaxForwardBytes bounds the checkpoint set size (fresh bytes
	// after page sharing): 32 MiB. Recording stops when the budget is
	// reached; later injection points restore the last checkpoint
	// recorded before it.
	DefaultMaxForwardBytes = 32 << 20
	// minForwardInterval is the smallest cycle spacing the planner emits;
	// below this the restore saves less than the snapshot costs.
	minForwardInterval = 64
	// forwardMargin is subtracted from a fixed trigger point so the
	// recorded checkpoint lands strictly before the firing boundary even
	// in the worst case (the longest THOR-S instruction, including two
	// cache-miss penalties, costs well under this many cycles).
	forwardMargin = 64
)

// ForwardPlan tells a recording target at which cycles of the reference
// run to capture checkpoints.
type ForwardPlan struct {
	// Campaign names the campaign the plan belongs to; a ForwardSet is
	// only usable by experiments of the same campaign.
	Campaign string
	// Cycles are the planned capture cycles, strictly ascending. The
	// target captures at the first instruction boundary at or after each
	// point.
	Cycles []uint64
	// MaxBytes caps the set's fresh-byte footprint; recording stops at
	// the budget.
	MaxBytes int
}

// ForwardCheckpoint is one recorded restore point. State is the
// target-private board snapshot (opaque to core); Cycle and Instret are
// the counter values at capture, used to select the nearest usable
// checkpoint for an injection point. Bytes counts the fresh bytes this
// checkpoint added beyond what it shares with its predecessor.
type ForwardCheckpoint struct {
	Cycle   uint64
	Instret uint64
	Bytes   int
	State   any
}

// ForwardSet is the complete checkpoint set recorded during a campaign's
// reference run. Checkpoints are immutable after recording and ascending
// by cycle, so one set may be shared read-only by every board worker.
type ForwardSet struct {
	Campaign    string
	Checkpoints []*ForwardCheckpoint
	// Bytes is the total fresh-byte footprint after page sharing.
	Bytes int
}

// Nearest returns the last checkpoint whose counter (cycle, or instret
// when byInstret) is at or before at, or nil when none qualifies. Both
// counters increase strictly across instruction boundaries, so a
// checkpoint at exactly `at` is the firing boundary itself and restoring
// it is exact.
func (s *ForwardSet) Nearest(at uint64, byInstret bool) *ForwardCheckpoint {
	var best *ForwardCheckpoint
	for _, cp := range s.Checkpoints {
		c := cp.Cycle
		if byInstret {
			c = cp.Instret
		}
		if c > at {
			break
		}
		best = cp
	}
	return best
}

// Forwarder is the optional TargetSystem extension for checkpoint
// forwarding. The runner arms recording on the board that executes the
// reference run, takes the recorded set afterwards, and hands it to every
// board worker; targets that do not implement Forwarder simply run every
// experiment cold.
type Forwarder interface {
	// ArmForwardRecording prepares the target to record checkpoints at
	// the plan's cycles during the next reference run.
	ArmForwardRecording(plan *ForwardPlan)
	// TakeForwardSet returns the set recorded since ArmForwardRecording
	// and disarms recording; nil when nothing was recorded.
	TakeForwardSet() *ForwardSet
	// SetForwardSet installs a recorded set for use by subsequent
	// experiments on this target.
	SetForwardSet(set *ForwardSet)
}

// ForwardCalibrator prices one checkpoint in emulated-cycle
// equivalents.
//
// Deprecated: checkpoint placement is interval-only and nothing in core
// prices checkpoints any more. The interface stays only while the
// perfbench harness still type-asserts targets against it.
type ForwardCalibrator interface {
	ForwardCostCycles() uint64
}

// forwardPlan derives the checkpoint plan from the campaign definition,
// or nil when forwarding cannot apply: disabled by config, detail-mode
// logging (per-instruction traces must cover the whole run), or a
// trigger whose firing depends on the execution prefix rather than a
// counter. Injection points past the end of the reference run are served
// by the recorder's horizon guard, not by the plan.
func (r *Runner) forwardPlan() *ForwardPlan {
	if r.fw.Disabled {
		return nil
	}
	if r.camp.LogMode == campaign.LogDetail {
		return nil
	}
	if !r.camp.Trigger.CycleMonotonic() {
		return nil
	}
	plan := &ForwardPlan{Campaign: r.camp.Name, MaxBytes: DefaultMaxForwardBytes}
	if r.camp.RandomWindow[1] > 0 && r.camp.Trigger.Kind == "cycle" {
		// Windowed injection times: spread checkpoints across the window
		// so every drawn injection cycle has a nearby restore point.
		lo, hi := r.camp.RandomWindow[0], r.camp.RandomWindow[1]
		interval := max((hi-lo)/DefaultMaxForwardCheckpoints, minForwardInterval)
		start := uint64(1)
		if lo > forwardMargin {
			start = lo - forwardMargin
		}
		for c := start; c < hi && len(plan.Cycles) < DefaultMaxForwardCheckpoints; c += interval {
			plan.Cycles = append(plan.Cycles, c)
		}
	} else {
		// Fixed trigger point: one checkpoint just before it. For
		// instret triggers the margin still guarantees usability, since
		// instret never exceeds the cycle count.
		at, _, ok := r.camp.Trigger.ForwardPoint()
		if !ok || at <= forwardMargin {
			return nil
		}
		plan.Cycles = []uint64{at - forwardMargin}
	}
	if len(plan.Cycles) == 0 {
		return nil
	}
	return plan
}
