package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// plannedExperiment is one pre-drawn injection.
type plannedExperiment struct {
	seq   int
	fault faultmodel.Fault
	trig  trigger.Spec
}

// plan draws the campaign's complete injection plan up front from a single
// RNG seeded with the campaign seed. Because the plan stream is fixed
// before any experiment runs, per-experiment outcomes are bit-identical
// regardless of how many boards later execute the plan.
func (r *Runner) plan() ([]plannedExperiment, int, error) {
	sp, _, err := r.space()
	if err != nil {
		return nil, 0, err
	}
	planRNG := rand.New(rand.NewSource(r.camp.Seed))
	out := make([]plannedExperiment, 0, r.camp.NumExperiments)
	skipped := 0
	// A bounded redraw budget keeps a pathological filter (rejecting
	// everything) from spinning forever.
	maxRedraws := 1000 * r.camp.NumExperiments
	for i := 0; i < r.camp.NumExperiments; i++ {
		for {
			fault, err := sp.Sample(&r.camp.FaultModel, planRNG)
			if err != nil {
				return nil, 0, err
			}
			trig := r.camp.Trigger
			if r.camp.RandomWindow[1] > 0 {
				span := r.camp.RandomWindow[1] - r.camp.RandomWindow[0]
				trig.Cycle = r.camp.RandomWindow[0] + uint64(planRNG.Int63n(int64(span)))
			}
			if r.filter == nil || r.filter(fault, trig) {
				out = append(out, plannedExperiment{seq: i, fault: fault, trig: trig})
				break
			}
			skipped++
			if skipped > maxRedraws {
				return nil, 0, fmt.Errorf("core: campaign %q: pre-injection filter rejected %d draws",
					r.camp.Name, skipped)
			}
		}
	}
	return out, skipped, nil
}

// planHashOf fingerprints the campaign definition together with the full
// injection plan drawn from it. A checkpoint stores this hash; resuming
// validates it, so a campaign whose configuration (and therefore plan)
// changed since the checkpoint is rejected instead of silently mixing
// two different plans' results.
func (r *Runner) planHashOf(planned []plannedExperiment) string {
	h := sha256.New()
	cfg, _ := json.Marshal(r.camp)
	h.Write(cfg)
	for _, pe := range planned {
		fmt.Fprintf(h, "%d|%+v|%+v\n", pe.seq, pe.fault, pe.trig)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveCursor persists the campaign cursor through the checkpoint sink.
// seqs is the caller's snapshot of completed sequence numbers; it is
// sorted in place.
func (r *Runner) saveCursor(ckpt CheckpointSink, hash string, ref bool, seqs []int) error {
	sort.Ints(seqs)
	return ckpt.SaveCheckpoint(&campaign.Checkpoint{
		Campaign:    r.camp.Name,
		PlanHash:    hash,
		Seed:        r.camp.Seed,
		Experiments: r.camp.NumExperiments,
		Reference:   ref,
		Completed:   seqs,
	})
}

// boardTarget returns the target system a board should drive: a fresh one
// from the factory when configured (required above one board), otherwise
// the runner's own target.
func (r *Runner) boardTarget() TargetSystem {
	if r.factory != nil {
		return r.factory()
	}
	return r.target
}

// Run executes the campaign: one planning pass, the reference run, then
// the experiment loop of paper Fig 2 dispatched over a pool of board
// workers. One board is the degenerate case — the single worker consumes
// the plan in sequence order, making execution equivalent to a sequential
// loop. Experiment outcomes are identical for every board count (each
// experiment is fully re-initialised on whichever board runs it); only
// wall-clock time changes.
//
// With more than one board the progress callback is invoked from multiple
// goroutines and must be safe for concurrent use. Pause/Resume/Stop act at
// the dispatch checkpoint between experiments; the sink is flushed on
// pause and on termination.
func (r *Runner) Run(ctx context.Context) (*Summary, error) {
	if r.boards < 1 {
		return nil, fmt.Errorf("core: board count %d < 1", r.boards)
	}
	if r.boards > 1 && r.factory == nil {
		return nil, fmt.Errorf("core: %d boards need a target factory (WithBoards)", r.boards)
	}
	if r.extFleet != nil && r.factory == nil {
		return nil, fmt.Errorf("core: a shared fleet needs a target factory (WithBoards)")
	}
	// Wake a paused campaign when the context is cancelled, so Wait in
	// checkpoint observes the cancellation.
	cancelWatch := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer cancelWatch()

	// stopCh mirrors Stop into a channel for the duration of this run, so
	// a worker blocked in a fleet Acquire (possibly waiting on boards held
	// by other campaigns) is woken by Stop, not only by queue progress.
	stopCh := make(chan struct{})
	r.mu.Lock()
	if r.stopped {
		close(stopCh)
	} else {
		r.stopNotify = stopCh
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stopNotify = nil
		r.mu.Unlock()
	}()

	// Board ownership lives in a Fleet. A shared fleet (WithFleet) is
	// contended by other campaigns; the private fallback is this
	// campaign's own boards and reproduces the legacy behaviour (a lease
	// is always granted immediately and never yielded).
	fleet := r.extFleet
	if fleet == nil {
		var ferr error
		fleet, ferr = NewFleet(r.boards)
		if ferr != nil {
			return nil, ferr
		}
	}
	handle := fleet.Register(r.camp.Name)
	defer handle.Close()

	r.progress.Start(r.camp.Name, r.camp.NumExperiments)
	r.progress.SetPhase("plan")
	planStart := time.Now()
	planned, skipped, err := r.plan()
	if err != nil {
		return nil, err
	}
	hash := r.planHashOf(planned)
	r.tracer.Record(telemetry.SpanRecord{Phase: "plan", Board: -1, Seq: -1,
		WallNS: time.Since(planStart).Nanoseconds()})

	// Durable checkpointing and resume state. doneSet marks experiments
	// whose results are already stored from an earlier (interrupted)
	// run; they are skipped at dispatch, so a resumed campaign replays
	// exactly the missing remainder of the same plan.
	var ckpt CheckpointSink
	if r.ckptEvery > 0 {
		cs, ok := r.sink.(CheckpointSink)
		if !ok {
			return nil, fmt.Errorf("core: checkpoints need a sink with SaveCheckpoint, got %T", r.sink)
		}
		ckpt = cs
	}
	doneSet := make(map[int]bool)
	var completedSeqs []int
	resumed := 0
	haveRef := false
	if r.resume != nil {
		if r.resume.PlanHash != "" && r.resume.PlanHash != hash {
			return nil, fmt.Errorf("core: campaign %q: plan hash mismatch (checkpoint %.12s…, current %.12s…): campaign definition changed since the checkpoint",
				r.camp.Name, r.resume.PlanHash, hash)
		}
		for _, seq := range r.resume.Completed {
			if seq >= 0 && seq < r.camp.NumExperiments && !doneSet[seq] {
				doneSet[seq] = true
				completedSeqs = append(completedSeqs, seq)
			}
		}
		resumed = len(completedSeqs)
		haveRef = r.resume.Reference
	}
	r.progress.AddDone(resumed)

	sum := &Summary{
		Campaign:      r.camp.Name,
		Skipped:       skipped,
		PlanHash:      hash,
		Deterministic: TargetDeterministic(r.target),
		ByStatus:      make(map[campaign.OutcomeStatus]int),
		ByMechanism:   make(map[string]int),
	}

	// makeReferenceRun (paper Fig 2): fault-free execution whose logged
	// state anchors the analysis phase. It runs on one board before the
	// pool fans out — unless an earlier run already logged it. When the
	// target supports checkpoint forwarding, the reference run doubles as
	// the recording pass: the resulting ForwardSet is handed to every
	// board worker so faulty experiments can skip the fault-free prefix.
	// A resumed campaign skips the reference and runs everything cold.
	policyOn := r.retry.enabled()
	var (
		mu        sync.Mutex
		firstErr  error
		done      int
		sinceCkpt int
	)
	failErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	// inShard reports whether a sequence number falls inside this
	// runner's shard range (the whole plan when no range is set).
	inShard := func(seq int) bool {
		return r.shardHi == 0 || (seq >= r.shardLo && seq < r.shardHi)
	}

	fwSet := r.presetFw
	if !haveRef {
		r.emit(ProgressEvent{Campaign: r.camp.Name, Phase: "reference", Total: r.camp.NumExperiments})
		r.progress.SetPhase("reference")
		refStart := time.Now()
		// The reference occupies a board like any experiment, so on a
		// shared fleet it queues behind other campaigns' leases.
		var refErr error
		if refLease, lerr := handle.Acquire(ctx); lerr != nil {
			refErr = fmt.Errorf("core: campaign %q reference: %w", r.camp.Name, lerr)
		} else {
			var recorded *ForwardSet
			recorded, refErr = r.referenceRun(ctx, sum)
			if recorded != nil {
				// A freshly recorded set supersedes any preset one.
				fwSet = recorded
			}
			refLease.Release()
		}
		r.tracer.Record(telemetry.SpanRecord{Phase: "reference", Board: -1, Seq: -1,
			EndCycle: sum.CyclesEmulated, WallNS: time.Since(refStart).Nanoseconds()})
		if refErr != nil {
			failErr(refErr)
		} else {
			haveRef = true
			if ckpt != nil {
				// First durable cursor: the reference is in, nothing else.
				if err := r.saveCursor(ckpt, hash, true, append([]int(nil), completedSeqs...)); err != nil {
					failErr(err)
				}
			}
		}
	}

	// Whatever set this run ended up with is observable after Run, so a
	// shard worker can reuse it for later ranges of the same campaign.
	r.capturedFw = fwSet

	// The pull queue replaces a pushed work channel: a worker that must
	// give an experiment back (its board got quarantined) can requeue it
	// for the surviving boards, which a closed channel cannot express.
	var q *expQueue
	if !failed() {
		items := make([]queuedExperiment, 0, len(planned))
		for _, pe := range planned {
			if doneSet[pe.seq] {
				continue // already durable from the interrupted run
			}
			if !inShard(pe.seq) {
				continue // another shard's slice of the plan
			}
			items = append(items, queuedExperiment{plannedExperiment: pe})
		}
		q = newExpQueue(items)
		r.progress.SetPhase("experiment")

		// A pause is a checkpoint of its own: the sink is flushed by
		// Runner.checkpoint, then this hook persists the cursor, so
		// killing a paused campaign is always recoverable.
		if ckpt != nil {
			r.onPause = func() {
				mu.Lock()
				snap := append([]int(nil), completedSeqs...)
				mu.Unlock()
				_ = r.saveCursor(ckpt, hash, true, snap)
			}
			defer func() { r.onPause = nil }()
		}

		// account folds one resolved experiment (successful or invalid)
		// into the summary and returns the progress event plus, when a
		// durable checkpoint is due, a cursor snapshot. Callers emit and
		// persist outside the lock.
		account := func(seq int, update func()) (ProgressEvent, []int) {
			mu.Lock()
			defer mu.Unlock()
			update()
			done++
			completedSeqs = append(completedSeqs, seq)
			var snap []int
			if ckpt != nil {
				sinceCkpt++
				if sinceCkpt >= r.ckptEvery {
					sinceCkpt = 0
					snap = append([]int(nil), completedSeqs...)
				}
			}
			return ProgressEvent{
				Campaign: r.camp.Name,
				Phase:    "experiment",
				Done:     resumed + done,
				Total:    r.camp.NumExperiments,
			}, snap
		}

		// Workers blocked in a fleet Acquire are woken by queue progress on
		// their own campaign only indirectly (another campaign releasing a
		// board); runCtx cancels them when the queue drains or the user
		// stops the campaign, so no worker waits for a board it can never
		// use.
		runCtx, cancelRun := context.WithCancel(ctx)
		defer cancelRun()
		go func() {
			select {
			case <-q.drained():
			case <-stopCh:
			case <-runCtx.Done():
			}
			cancelRun()
		}()

		// A worker is a goroutine, not a board: it leases a board from the
		// fleet while it has work and the fair-share policy lets it keep
		// one. All per-board state (target, jitter stream, busy counter)
		// is derived from the lease, so outcomes stay keyed to the plan,
		// never to scheduling.
		worker := func() {
			var (
				lease       *Lease
				target      TargetSystem
				jitter      *rand.Rand
				consecFails int
				busyNS      *telemetry.Counter
				boardID     = -1
			)
			release := func() {
				if lease != nil {
					r.progress.BoardIdle(boardID)
					lease.Release()
					lease = nil
				}
			}
			defer release()
			quarantine := func() {
				mu.Lock()
				sum.QuarantinedBoards++
				mu.Unlock()
				mQuarantined.Inc()
				r.progress.BoardQuarantined(boardID)
				lease.Quarantine()
				lease = nil
			}
			for {
				if !r.checkpoint(ctx) {
					q.halt()
					return
				}
				if failed() {
					q.halt()
					return
				}
				if lease != nil {
					r.progress.BoardIdle(boardID)
				}
				qe, ok, mustWait := q.tryPop()
				if mustWait {
					// The queue is empty but other workers still hold
					// experiments that may come back (requeue after a
					// quarantine). Give the board up before blocking: the
					// requeued experiment may need this very board — or
					// another campaign may.
					release()
					qe, ok = q.pop()
				}
				if !ok {
					return
				}
				if lease != nil && handle.ShouldYield() {
					// Over the fair-share entitlement with another campaign
					// waiting: hand the board back between experiments.
					release()
				}
				if lease == nil {
					var lerr error
					lease, lerr = handle.Acquire(runCtx)
					if lerr != nil {
						// Fleet exhausted, stop, or cancellation: give the
						// experiment back and retire. The leftover check
						// after the pool drains reports exhaustion;
						// stop/cancel report themselves.
						q.requeue(qe)
						return
					}
					boardID = lease.Board()
					target = r.boardTarget()
					installForwardSet(target, fwSet)
					// Per-board seeded jitter keeps retry timing
					// deterministic in tests without coupling it to the
					// experiment RNG streams.
					jitter = rand.New(rand.NewSource(expSeed(r.camp.Seed, -3-boardID)))
					consecFails = 0
					// The busy-time child is resolved once per lease so the
					// hot loop never touches the family's mutex.
					busyNS = mBoardBusyNS.With(strconv.Itoa(boardID))
				}
				mDispatched.Inc()
				r.progress.BoardRunning(boardID, qe.seq)
				expStart := time.Now()
				// Attempt loop for the in-hand experiment: each attempt
				// rebuilds the experiment from its per-sequence seed, so a
				// retried run is bit-identical to a first-try run.
				for {
					attempt := qe.attempts + 1
					ex := r.newExperiment(qe.seq, &qe.fault, qe.trig)
					var flushDetail func() error
					if policyOn {
						flushDetail = r.bufferDetail(ex)
					}
					err := r.execAttempt(ctx, target, ex, attempt)
					if err == nil && flushDetail != nil {
						err = flushDetail()
					}
					if err == nil {
						err = r.logResult(ex, "")
					}
					if err == nil {
						consecFails = 0
						expNS := time.Since(expStart).Nanoseconds()
						busyNS.Add(uint64(expNS))
						st := ex.Result.Outcome.Status
						emulated := ex.Result.Outcome.Cycles
						saved := uint64(0)
						if ex.Forwarded {
							saved = ex.ForwardedFrom
							emulated -= saved
						}
						// Forwarding delta: for an injected experiment
						// with a cycle-threshold trigger, the cycles
						// re-emulated between the restore point (cycle 0
						// when cold) and the injection cycle. Experiments
						// injected past the reference run's end restore
						// the horizon guard and dominate this total.
						delta := uint64(0)
						if at, byInstret, ok := qe.trig.ForwardPoint(); ok && !byInstret && ex.Injected {
							delta = at
							if ex.Forwarded && saved < at {
								delta = at - saved
							}
						}
						ev, snap := account(qe.seq, func() {
							sum.Experiments++
							if ex.Injected {
								sum.Injected++
							}
							sum.ByStatus[st]++
							if st == campaign.OutcomeDetected {
								sum.ByMechanism[ex.Result.Outcome.Mechanism]++
							}
							if ex.Forwarded {
								sum.Forwarded++
								sum.CyclesSaved += saved
							}
							sum.CyclesEmulated += emulated
							sum.ForwardDeltaCycles += delta
						})
						mCompleted.Inc()
						mCyclesEmulated.Add(emulated)
						mCyclesSaved.Add(saved)
						mForwardDelta.Add(delta)
						if ex.Forwarded {
							mForwarded.Inc()
							r.progress.Forwarded()
						}
						r.progress.Done()
						r.tracer.Record(telemetry.SpanRecord{
							Phase:      "experiment",
							Board:      boardID,
							Seq:        qe.seq,
							StartCycle: ex.ForwardedFrom,
							EndCycle:   ex.Result.Outcome.Cycles,
							WallNS:     expNS,
						})
						ev.Experiment = ex.Name
						ev.Outcome = st
						r.emit(ev)
						if snap != nil {
							// The cursor write flushes the sink first, so it
							// happens outside the progress lock.
							if err := r.saveCursor(ckpt, hash, true, snap); err != nil {
								failErr(err)
							}
						}
						q.finish()
						break
					}
					// Harness failure. Without a retry policy, the first
					// error ends dispatch — but through the common
					// drain/flush path below, not an early return.
					qe.attempts = attempt
					class := ClassifyError(err)
					wrapped := fmt.Errorf("core: campaign %q %s: %w", r.camp.Name, ex.Name, err)
					if !policyOn || ctx.Err() != nil {
						failErr(wrapped)
						q.finish()
						q.halt()
						return
					}
					consecFails++
					if qe.attempts >= r.retry.maxAttempts() {
						// Retries exhausted: record the invalid run so the
						// plan slot is accounted for, and move on. Analysis
						// excludes it from every effectiveness ratio.
						if serr := r.sinkLog(r.invalidRecord(ex, qe.attempts, err)); serr != nil {
							failErr(serr)
							q.finish()
							q.halt()
							return
						}
						ev, snap := account(qe.seq, func() {
							sum.Experiments++
							sum.InvalidRuns++
							sum.ByStatus[campaign.OutcomeInvalidRun]++
						})
						expNS := time.Since(expStart).Nanoseconds()
						busyNS.Add(uint64(expNS))
						mInvalidRuns.Inc()
						r.progress.Invalid()
						r.progress.Done()
						r.tracer.Record(telemetry.SpanRecord{Phase: "invalid", Board: boardID,
							Seq: qe.seq, WallNS: expNS})
						ev.Experiment = ex.Name
						ev.Outcome = campaign.OutcomeInvalidRun
						r.emit(ev)
						if snap != nil {
							if err := r.saveCursor(ckpt, hash, true, snap); err != nil {
								failErr(err)
							}
						}
						if th := r.retry.BoardFailureThreshold; th > 0 && consecFails >= th {
							quarantine()
						}
						q.finish()
						break
					}
					mu.Lock()
					sum.Retried++
					mu.Unlock()
					retryCounter(class).Inc()
					r.progress.Retried()
					// Circuit breaker: after too many consecutive failures
					// the board is suspect — hand the experiment back and
					// quarantine the board fleet-wide. The failures are
					// attributed to the board, so the requeued experiment
					// gets its retry budget back; the worker itself
					// survives and may lease a healthy replacement.
					if th := r.retry.BoardFailureThreshold; th > 0 && consecFails >= th {
						qe.attempts = 0
						q.requeue(qe)
						quarantine()
						break
					}
					if class == Wedged && r.factory == nil {
						// The wedged attempt may still be driving this
						// target; without a factory there is no replacement
						// board, so the board is quarantined with its work
						// requeued (and the campaign fails cleanly if it
						// was the last one).
						q.requeue(qe)
						quarantine()
						break
					}
					if class != Persistent {
						d := r.retry.backoff(attempt+1, jitter)
						mBackoffNS.Add(uint64(d))
						if !sleepCtx(ctx, d) {
							failErr(wrapped)
							q.finish()
							q.halt()
							return
						}
					}
					if class != Transient && r.factory != nil {
						// Power cycle: a fresh target from the factory is
						// the simulated equivalent of cycling the board's
						// power before the retry (every algorithm re-runs
						// InitTestCard regardless).
						target = r.factory()
						installForwardSet(target, fwSet)
					}
				}
			}
		}

		// Worker parallelism is this campaign's board budget, capped by
		// what the fleet could ever grant.
		workers := r.boards
		if c := fleet.Capacity(); c < workers {
			workers = c
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()

		// Workers all gone with work left over: every board was
		// quarantined before the plan finished (a user stop or a fatal
		// error also leaves work behind, but those report themselves).
		if n := q.leftover(); n > 0 && !failed() && ctx.Err() == nil {
			r.mu.Lock()
			stopped := r.stopped
			r.mu.Unlock()
			if !stopped {
				failErr(fmt.Errorf("core: campaign %q: %d experiments unexecuted: all boards quarantined",
					r.camp.Name, n))
			}
		}
	}

	// Termination flush: whatever the boards logged must be durable before
	// the campaign reports its outcome — even (especially) on error, so a
	// failed campaign keeps every completed result.
	if ferr := r.flushSink(); ferr != nil && firstErr == nil {
		firstErr = ferr
	}
	// Termination cursor: a stop (or error) leaves a resumable
	// checkpoint behind; on full completion it records the finished
	// state until the caller clears it.
	if ckpt != nil && haveRef {
		mu.Lock()
		snap := append([]int(nil), completedSeqs...)
		mu.Unlock()
		if cerr := r.saveCursor(ckpt, hash, haveRef, snap); cerr != nil && firstErr == nil {
			firstErr = cerr
		}
	}
	if firstErr != nil {
		// The partial summary still describes everything that completed
		// and was flushed above.
		r.progress.SetPhase("failed")
		return sum, firstErr
	}
	total := resumed + sum.Experiments
	if ctx.Err() != nil {
		r.progress.SetPhase("stopped")
		r.emit(ProgressEvent{Campaign: r.camp.Name, Phase: "stopped",
			Done: total, Total: r.camp.NumExperiments})
		return sum, ctx.Err()
	}
	phase := "done"
	if total < r.camp.NumExperiments {
		phase = "stopped"
	}
	r.progress.SetPhase(phase)
	r.emit(ProgressEvent{Campaign: r.camp.Name, Phase: phase,
		Done: total, Total: r.camp.NumExperiments})
	return sum, nil
}

// installForwardSet hands the reference run's checkpoint set to a board
// target that supports forwarding.
func installForwardSet(target TargetSystem, set *ForwardSet) {
	if set == nil {
		return
	}
	if fwTarget, ok := target.(Forwarder); ok {
		fwTarget.SetForwardSet(set)
	}
}

// referenceRun executes the campaign's fault-free reference run, with the
// same watchdog/retry protection as the experiments when the policy is
// on, and returns the recorded forward set (nil when the target does not
// forward or recording was off).
func (r *Runner) referenceRun(ctx context.Context, sum *Summary) (*ForwardSet, error) {
	refTarget := r.boardTarget()
	jitter := rand.New(rand.NewSource(expSeed(r.camp.Seed, -2)))
	// The checkpoint plan is computed once, before the attempt loop: a
	// retried reference must record at the same cycles the first attempt
	// would have, so a retry stays observationally equivalent.
	fwPlan := r.forwardPlan()
	for attempt := 1; ; attempt++ {
		ref := r.newExperiment(-1, nil, trigger.Spec{})
		var flushDetail func() error
		if r.retry.enabled() {
			flushDetail = r.bufferDetail(ref)
		}
		fwTarget, canForward := refTarget.(Forwarder)
		if canForward && fwPlan != nil {
			// Re-arming on every attempt resets any partial recording
			// from a failed one.
			fwTarget.ArmForwardRecording(fwPlan)
		}
		err := r.execAttempt(ctx, refTarget, ref, attempt)
		if err == nil && flushDetail != nil {
			err = flushDetail()
		}
		if err == nil {
			err = r.logResult(ref, "")
		}
		if err == nil {
			sum.CyclesEmulated += ref.Result.Outcome.Cycles
			if canForward {
				return fwTarget.TakeForwardSet(), nil
			}
			return nil, nil
		}
		wrapped := fmt.Errorf("core: campaign %q %s: %w", r.camp.Name, ref.Name, err)
		if !r.retry.enabled() || attempt >= r.retry.maxAttempts() || ctx.Err() != nil {
			return nil, wrapped
		}
		sum.Retried++
		class := ClassifyError(err)
		retryCounter(class).Inc()
		r.progress.Retried()
		if class == Wedged && r.factory == nil {
			// The wedged attempt may still be driving this target, and
			// there is no factory to power-cycle a replacement from.
			return nil, wrapped
		}
		if class != Persistent {
			d := r.retry.backoff(attempt+1, jitter)
			mBackoffNS.Add(uint64(d))
			if !sleepCtx(ctx, d) {
				return nil, wrapped
			}
		}
		if class != Transient && r.factory != nil {
			refTarget = r.factory()
		}
	}
}

// queuedExperiment is one plan entry in the work queue, carrying its
// accumulated attempt count across requeues.
type queuedExperiment struct {
	plannedExperiment
	attempts int
}

// expQueue is the pull-based work queue shared by the board workers.
// Unlike a closed channel, it supports giving work back: a quarantined
// board requeues its in-hand experiment for the healthy boards.
type expQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []queuedExperiment
	inFlight int
	halted   bool
	done     chan struct{}
	doneSet  bool
}

func newExpQueue(items []queuedExperiment) *expQueue {
	q := &expQueue{items: items, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	mQueueDepth.Set(int64(len(items)))
	q.mu.Lock()
	q.maybeDoneLocked()
	q.mu.Unlock()
	return q
}

// drained returns a channel closed once no work remains or the queue is
// halted — the signal that cancels workers parked in a fleet Acquire
// which no remaining work could ever use.
func (q *expQueue) drained() <-chan struct{} { return q.done }

func (q *expQueue) maybeDoneLocked() {
	if !q.doneSet && (q.halted || (len(q.items) == 0 && q.inFlight == 0)) {
		q.doneSet = true
		close(q.done)
	}
}

// popLocked dequeues the head item with q.mu held: ok reports work
// handed out, mustWait reports an empty queue with experiments still in
// flight (a failing worker may requeue one).
func (q *expQueue) popLocked() (qe queuedExperiment, ok, mustWait bool) {
	if q.halted {
		return queuedExperiment{}, false, false
	}
	if len(q.items) > 0 {
		qe = q.items[0]
		q.items = q.items[1:]
		q.inFlight++
		mQueueDepth.Set(int64(len(q.items)))
		return qe, true, false
	}
	return queuedExperiment{}, false, q.inFlight > 0
}

// tryPop is the non-blocking pop. On mustWait the caller should release
// its board before falling back to the blocking pop.
func (q *expQueue) tryPop() (qe queuedExperiment, ok, mustWait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// pop hands the next experiment to a worker. It blocks while the queue is
// empty but other work is still in flight — a failing worker may requeue
// its experiment — and returns false when the queue is halted or fully
// drained.
func (q *expQueue) pop() (queuedExperiment, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		qe, ok, mustWait := q.popLocked()
		if !mustWait {
			return qe, ok
		}
		q.cond.Wait()
	}
}

// finish marks a popped experiment resolved (logged or recorded invalid).
func (q *expQueue) finish() {
	q.mu.Lock()
	q.inFlight--
	q.maybeDoneLocked()
	q.mu.Unlock()
	q.cond.Broadcast()
}

// requeue returns an unresolved in-hand experiment to the queue.
func (q *expQueue) requeue(qe queuedExperiment) {
	q.mu.Lock()
	q.items = append(q.items, qe)
	q.inFlight--
	mQueueDepth.Set(int64(len(q.items)))
	q.mu.Unlock()
	q.cond.Broadcast()
}

// halt makes every current and future pop return false.
func (q *expQueue) halt() {
	q.mu.Lock()
	q.halted = true
	q.maybeDoneLocked()
	q.mu.Unlock()
	q.cond.Broadcast()
}

// leftover reports how many experiments were never resolved.
func (q *expQueue) leftover() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
