package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"goofi/internal/campaign"
)

// RetryPolicy configures the runner's fault-tolerance layer: per-attempt
// watchdogs, retry with capped exponential backoff, and the board
// circuit breaker. The zero value disables the layer entirely, keeping
// the legacy semantics (first experiment error aborts dispatch).
type RetryPolicy struct {
	// MaxRetries is how many times a failed experiment is re-attempted
	// beyond its first execution. An experiment still failing after
	// MaxRetries+1 attempts is recorded as OutcomeInvalidRun and the
	// campaign moves on.
	MaxRetries int
	// BoardFailureThreshold is the circuit breaker: after this many
	// consecutive harness failures on one board, the board is
	// quarantined and its in-hand work reassigned to healthy boards
	// (0 = never quarantine). Keep it at or below MaxRetries so a
	// broken board trips the breaker before it exhausts an innocent
	// experiment's retry budget.
	BoardFailureThreshold int
	// WatchdogTimeout is the per-attempt wall-clock deadline; an attempt
	// exceeding it is classified Wedged and its board power-cycled
	// (0 = no watchdog). Recovering from a wedge needs a board factory
	// (WithBoards): the wedged attempt may still hold the old target.
	WatchdogTimeout time.Duration
	// CycleCap is the per-attempt emulated-cycle cap; a run that emulates
	// more cycles is treated as a runaway harness and classified Wedged
	// (0 = no cap). It complements the campaign's TimeoutCycles, which a
	// misbehaving target could ignore.
	CycleCap uint64
	// BackoffBase and BackoffMax bound the exponential backoff between
	// retry attempts: attempt n sleeps base<<(n-1), capped at max, plus
	// up to 50% seeded jitter. Zero values select the defaults below.
	// Persistent failures skip the delay (waiting cannot fix them).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// Backoff defaults.
const (
	// DefaultBackoffBase is the first retry delay when the policy does
	// not set one. Deliberately short: simulated boards recover at
	// InitTestCard speed, and real TAP glitches clear in milliseconds.
	DefaultBackoffBase = 2 * time.Millisecond
	// DefaultBackoffMax caps the exponential growth.
	DefaultBackoffMax = 250 * time.Millisecond
)

// enabled reports whether any part of the fault-tolerance layer is on.
// A fully zero policy preserves the legacy abort-on-first-error
// behaviour (errors are still recover-classified so a target panic can
// no longer kill the process).
func (p *RetryPolicy) enabled() bool {
	return p.MaxRetries > 0 || p.BoardFailureThreshold > 0 ||
		p.WatchdogTimeout > 0 || p.CycleCap > 0
}

// maxAttempts is the total execution budget per experiment.
func (p *RetryPolicy) maxAttempts() int { return p.MaxRetries + 1 }

// backoff returns the sleep before retry attempt n (n >= 2), with
// seeded jitter drawn from rng so tests are deterministic.
func (p *RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	base, max := p.BackoffBase, p.BackoffMax
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 2; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Up to 50% jitter spreads simultaneous retries across boards.
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// WithRetryPolicy enables the fault-tolerance layer: panics in board
// workers are recovered per experiment, failed experiments are retried
// with backoff after a board re-init (power cycle), boards failing
// repeatedly are quarantined, and experiments exhausting their retries
// are recorded as OutcomeInvalidRun instead of failing the campaign.
func WithRetryPolicy(p RetryPolicy) RunnerOption {
	return func(r *Runner) { r.retry = p }
}

// execAttempt runs the algorithm once on the given target, converting
// panics to Wedged errors and enforcing the policy's watchdogs. When the
// wall-clock watchdog fires, the attempt's goroutine is abandoned
// together with the target it may still be driving — exactly like a
// wedged physical board, which only a power cycle (a fresh target from
// the factory) recovers.
func (r *Runner) execAttempt(ctx context.Context, target TargetSystem, ex *Experiment, attempt int) error {
	run := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &ExperimentError{Class: Wedged, Experiment: ex.Name, Attempt: attempt,
					Err: fmt.Errorf("panic in experiment: %v", p)}
			}
		}()
		return r.alg.Run(target, ex)
	}
	var err error
	if r.retry.WatchdogTimeout <= 0 {
		err = run()
	} else {
		done := make(chan error, 1)
		go func() { done <- run() }()
		timer := time.NewTimer(r.retry.WatchdogTimeout)
		defer timer.Stop()
		select {
		case err = <-done:
		case <-timer.C:
			mWatchdogFires.Inc()
			return &ExperimentError{Class: Wedged, Experiment: ex.Name, Attempt: attempt,
				Err: fmt.Errorf("watchdog: no response within %v", r.retry.WatchdogTimeout)}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err != nil {
		return err
	}
	if cc := r.retry.CycleCap; cc > 0 && ex.Result.Outcome.Cycles > cc {
		mWatchdogFires.Inc()
		return &ExperimentError{Class: Wedged, Experiment: ex.Name, Attempt: attempt,
			Err: fmt.Errorf("watchdog: run emulated %d cycles, cap %d", ex.Result.Outcome.Cycles, cc)}
	}
	return nil
}

// sleepCtx sleeps for d, returning false when ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// bufferDetail reroutes an experiment's detail-mode sink into an
// in-memory buffer, so a retried attempt's partial instruction trace is
// discarded instead of colliding with the successful attempt's rows.
// flush writes the buffered trace to the real sink.
func (r *Runner) bufferDetail(ex *Experiment) (flush func() error) {
	if ex.DetailSink == nil {
		return func() error { return nil }
	}
	var buf []*campaign.ExperimentRecord
	parent := ex.Name
	ex.DetailSink = func(step int, sv *campaign.StateVector) error {
		buf = append(buf, detailRecord(r.camp.Name, parent, step, sv))
		return nil
	}
	return func() error {
		for _, rec := range buf {
			if err := r.sink.LogExperiment(rec); err != nil {
				return err
			}
		}
		return nil
	}
}

// invalidRecord builds the LoggedSystemState row for an experiment the
// harness could not complete: the planned injection is preserved so the
// experiment can be re-attempted (goofi resume -retry-invalid), the
// outcome records the attempt count and final failure, and Injected is
// false so analysis excludes the run from every effectiveness ratio.
func (r *Runner) invalidRecord(ex *Experiment, attempts int, cause error) *campaign.ExperimentRecord {
	data := campaign.ExperimentData{
		Seq:     ex.Seq,
		Trigger: ex.Trigger,
		Outcome: campaign.Outcome{
			Status:       campaign.OutcomeInvalidRun,
			Attempts:     attempts,
			HarnessError: cause.Error(),
		},
	}
	if ex.Fault != nil {
		data.Fault = *ex.Fault
	}
	return &campaign.ExperimentRecord{
		Name:     ex.Name,
		Campaign: r.camp.Name,
		Data:     data,
		Step:     -1,
	}
}
