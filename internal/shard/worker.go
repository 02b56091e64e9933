package shard

// The worker: leases ranges from its coordinator, executes each with a
// core.Runner against its own WAL-backed shard database, and reports the
// logged records back in batches. The shard database makes a worker's
// progress durable locally — a worker that crashed mid-range resumes
// from its own durable cursor and reports the records it already has
// instead of re-running them — and the carried forward set keeps
// checkpoint fast-forwarding effective after the first range, where the
// reference run is skipped.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/runspec"
	"goofi/internal/sqldb"

	// Registered target systems: workers construct targets through the
	// core registry, so each package's RegisterTarget init must run.
	_ "goofi/internal/pinlevel"
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
	_ "goofi/internal/swifi"
)

// reportBatch is how many records a report carries at most; experiment
// groups (end record plus its trace rows) are never split across
// batches, so the coordinator can accept trace rows with their parent.
const reportBatch = 64

// WorkerConfig wires one shard worker.
type WorkerConfig struct {
	// Name identifies the worker in the lease protocol.
	Name string
	// Dir is the worker's shard-database directory.
	Dir string
	// Boards sizes the worker's own board pool (default 1).
	Boards int
	// Transport reaches the coordinator.
	Transport Transport
	// Poll is the wait-state backoff (default 200ms).
	Poll time.Duration
	// OnRecord, when set, observes every record the worker's runs log
	// (test hook: conformance kills a worker mid-range from it).
	OnRecord func(rec *campaign.ExperimentRecord)
}

// Worker executes leased ranges until its coordinator says done.
type Worker struct {
	cfg     WorkerConfig
	carried *core.ForwardSet
	// delivSeq numbers report deliveries so every batch gets a unique
	// idempotency key; retries of the same batch reuse the same key.
	delivSeq atomic.Int64
}

// delivery mints the idempotency key for one report batch of a lease.
func (w *Worker) delivery(leaseID string) string {
	return fmt.Sprintf("%s/%s/%d", w.cfg.Name, leaseID, w.delivSeq.Add(1))
}

// NewWorker validates the config and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" || cfg.Dir == "" || cfg.Transport == nil {
		return nil, fmt.Errorf("shard: worker needs a name, directory and transport")
	}
	if cfg.Boards <= 0 {
		cfg.Boards = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	return &Worker{cfg: cfg}, nil
}

// hookSink forwards to the worker's batching sink and mirrors every
// record to the range's streaming reporter and the OnRecord test hook.
type hookSink struct {
	*campaign.BatchingSink
	rep  *reporter
	hook func(*campaign.ExperimentRecord)
}

func (h *hookSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	err := h.BatchingSink.LogExperiment(rec)
	if err != nil {
		return err
	}
	h.rep.observe(rec)
	if h.hook != nil {
		h.hook(rec)
	}
	return err
}

// reporter accumulates a range run's records and streams them to the
// coordinator in complete experiment groups — an end record together
// with the detail-trace rows logged before it — so the merge advances
// while the range is still running and a dead shard loses at most the
// in-flight tail. Streamed record names are remembered so the final
// store scan does not resend them.
type reporter struct {
	mu sync.Mutex
	// trace buffers detail rows until their parent's end record lands.
	trace map[string][]*campaign.ExperimentRecord
	// ready holds complete groups awaiting a report, in arrival order.
	// Group boundaries survive so take never splits one across reports.
	ready [][]*campaign.ExperimentRecord
	n     int // records across ready
	// acked maps end-record names the coordinator has accepted a
	// report for (its trace rows travelled in the same batch).
	acked map[string]bool
	// kick wakes the pump early once a full batch is ready.
	kick chan struct{}
}

func newReporter() *reporter {
	return &reporter{
		trace: make(map[string][]*campaign.ExperimentRecord),
		acked: make(map[string]bool),
		kick:  make(chan struct{}, 1),
	}
}

func (p *reporter) observe(rec *campaign.ExperimentRecord) {
	p.mu.Lock()
	if rec.Step >= 0 {
		p.trace[rec.Parent] = append(p.trace[rec.Parent], rec)
		p.mu.Unlock()
		return
	}
	group := append(p.trace[rec.Name], rec)
	delete(p.trace, rec.Name)
	p.ready = append(p.ready, group)
	p.n += len(group)
	full := p.n >= reportBatch
	p.mu.Unlock()
	if full {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// take pops complete groups, flattened, up to roughly max records (at
// least one whole group, so a group larger than max still moves).
func (p *reporter) take(max int) []*campaign.ExperimentRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*campaign.ExperimentRecord
	for len(p.ready) > 0 && (len(out) == 0 || len(out)+len(p.ready[0]) <= max) {
		out = append(out, p.ready[0]...)
		p.n -= len(p.ready[0])
		p.ready = p.ready[1:]
	}
	return out
}

func (p *reporter) markAcked(recs []*campaign.ExperimentRecord) {
	p.mu.Lock()
	for _, rec := range recs {
		if rec.Step < 0 {
			p.acked[rec.Name] = true
		}
	}
	p.mu.Unlock()
}

func (p *reporter) isAcked(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked[name]
}

// Run leases and executes ranges until the coordinator reports the
// campaign done, the context ends, or a local failure is fatal. A lost
// lease (heartbeat lapse, coordinator restart) abandons the range and
// leases anew — the coordinator requeues what was not merged.
func (w *Worker) Run(ctx context.Context) error {
	tenants, err := campaign.NewTenantDBs(w.cfg.Dir, sqldb.SyncNever)
	if err != nil {
		return err
	}
	defer tenants.Close()
	// Register with the fleet. Registration is advisory (the coordinator
	// learns of us at lease time regardless) so transient failures are
	// ignored — but a 401 is terminal: the token is wrong and every
	// later call would bounce the same way.
	host, _ := os.Hostname()
	if _, err := w.cfg.Transport.Hello(ctx, HelloRequest{Worker: w.cfg.Name, Host: host}); err == ErrUnauthorized {
		return err
	}
	backoff := w.cfg.Poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.cfg.Transport.Lease(ctx, LeaseRequest{Worker: w.cfg.Name})
		if err == ErrUnauthorized {
			return err
		}
		if err != nil {
			// The coordinator may be restarting; keep knocking.
			if !sleep(ctx, backoff) {
				return ctx.Err()
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = w.cfg.Poll
		switch resp.Status {
		case LeaseDone:
			return nil
		case LeaseWait:
			if !sleep(ctx, w.cfg.Poll) {
				return ctx.Err()
			}
		case LeaseRange:
			err := w.runRange(ctx, tenants, resp)
			switch {
			case err == nil:
			case err == ErrBadLease:
				// Abandoned: the coordinator already requeued the rest.
			case ctx.Err() != nil:
				return ctx.Err()
			default:
				return err
			}
		default:
			return fmt.Errorf("shard: unknown lease status %q", resp.Status)
		}
	}
}

func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// runRange executes one leased range and reports its records.
func (w *Worker) runRange(ctx context.Context, tenants *campaign.TenantDBs, lease *LeaseResponse) error {
	camp := lease.Campaign
	if camp == nil || lease.Target == nil {
		return fmt.Errorf("shard: lease %s carries no campaign definition", lease.LeaseID)
	}

	// Two pumps for the lease's lifetime, started before any setup work —
	// the lease clock began ticking at the grant, and recovering a large
	// shard database or building a board pool can outlast a TTL. The
	// heartbeat pump is pure liveness: it must never block on the merge,
	// or backpressure would expire the very lease whose work it is
	// stalling. The streaming pump reports complete experiment groups as
	// they accumulate — it may stall in the coordinator's ingest queue
	// for as long as the merge needs, the heartbeats keep the lease alive
	// meanwhile. A rejected beat or report means the lease is gone: stop
	// the run and abandon the range.
	rep := newReporter()
	rctx, rcancel := context.WithCancel(ctx)
	var pumps sync.WaitGroup
	lost := make(chan struct{})
	var lostOnce sync.Once
	loseLease := func() {
		lostOnce.Do(func() {
			close(lost)
			rcancel()
		})
	}
	stopPumps := func() {
		rcancel()
		pumps.Wait()
	}
	defer stopPumps()
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		t := time.NewTicker(heartbeatEvery(lease))
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-t.C:
			}
			err := w.cfg.Transport.Heartbeat(ctx, HeartbeatRequest{
				Worker: w.cfg.Name, LeaseID: lease.LeaseID,
			})
			if err == ErrBadLease || err == ErrUnauthorized {
				loseLease()
				return
			}
			// Transient transport errors ride: the coordinator will
			// expire us if they persist, and the next beat retries.
		}
	}()
	go func() {
		defer pumps.Done()
		t := time.NewTicker(heartbeatEvery(lease))
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-rep.kick:
			case <-t.C:
			}
			for {
				recs := rep.take(4 * reportBatch)
				if len(recs) == 0 {
					break
				}
				_, err := w.cfg.Transport.Report(ctx, ReportRequest{
					Worker: w.cfg.Name, LeaseID: lease.LeaseID, Records: recs,
					Delivery: w.delivery(lease.LeaseID),
				})
				if err == ErrBadLease || err == ErrUnauthorized {
					loseLease()
					return
				}
				if err != nil {
					// Transient: the unacked records re-report in the
					// final store scan.
					break
				}
				rep.markAcked(recs)
			}
		}
	}()

	st, _, release, err := tenants.Acquire("shard")
	if err != nil {
		return err
	}
	defer release()
	// A stale shard database from an earlier run of a different campaign
	// definition under the same name would resume the wrong plan: wipe it.
	if prev, err := st.GetCampaign(camp.Name); err == nil && !sameDefinition(prev, camp) {
		if err := st.DeleteCheckpoint(camp.Name); err != nil {
			return err
		}
		if err := st.DeleteExperiments(camp.Name); err != nil {
			return err
		}
	}
	if err := st.PutTargetSystem(lease.Target); err != nil {
		return err
	}
	if err := st.PutCampaign(camp); err != nil {
		return err
	}
	cp, err := st.RecoverCursor(camp.Name)
	if err != nil {
		return err
	}
	spec := lease.Spec
	spec.Boards = w.cfg.Boards
	run, err := runspec.Build(st, camp, spec, cp, runspec.Attach{
		Options: []core.RunnerOption{
			core.WithShardRange(lease.Range.Lo, lease.Range.Hi),
			core.WithForwardSet(w.carried),
		},
		WrapSink: func(sink *campaign.BatchingSink) core.ResultSink {
			return &hookSink{BatchingSink: sink, rep: rep, hook: w.cfg.OnRecord}
		},
	})
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	_, runErr := run.Execute(rctx)
	stopPumps()
	w.carried = run.Runner.ForwardSet()
	// Make the range durable locally whatever happens next; a worker
	// killed after this point resumes without re-running anything.
	if err := run.Sink.Close(); err != nil {
		return err
	}
	select {
	case <-lost:
		return ErrBadLease
	default:
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if runErr != nil {
		return runErr
	}
	return w.report(ctx, st, lease, rep)
}

func heartbeatEvery(lease *LeaseResponse) time.Duration {
	if lease.HeartbeatEvery > 0 {
		return lease.HeartbeatEvery
	}
	return DefaultHeartbeat
}

// report closes out the range: the streamed-but-unacked tail plus every
// in-range record the shard database holds from earlier interrupted
// attempts (which the runner skipped rather than re-ran), in batches,
// the last one marked final.
func (w *Worker) report(ctx context.Context, st *campaign.Store, lease *LeaseResponse, rep *reporter) error {
	name := lease.Campaign.Name
	recs, err := st.Experiments(name)
	if err != nil {
		return err
	}
	// Anything still queued in the reporter is durable in the store by
	// now (the sink closed before this call), so the scan below is the
	// single source: every in-range group not already streamed.
	for len(rep.take(1<<30)) > 0 {
	}
	// groups keeps each experiment's records contiguous.
	var groups [][]*campaign.ExperimentRecord
	for _, rec := range recs {
		inRange := !rec.IsReference() &&
			rec.Data.Seq >= lease.Range.Lo && rec.Data.Seq < lease.Range.Hi
		if !rec.IsReference() && !inRange {
			continue
		}
		if rep.isAcked(rec.Name) {
			continue // already streamed mid-range
		}
		group := []*campaign.ExperimentRecord{rec}
		trace, err := st.Trace(rec.Name)
		if err != nil {
			return err
		}
		group = append(group, trace...)
		if rec.IsReference() {
			// Reference first: the coordinator needs it before analysis.
			groups = append([][]*campaign.ExperimentRecord{group}, groups...)
		} else {
			groups = append(groups, group)
		}
	}
	var batch []*campaign.ExperimentRecord
	send := func(final bool) error {
		// One idempotency key per batch, minted before the retry loop:
		// every retry of this batch replays the same key, so a delivery
		// whose first acknowledgement was lost is re-acked, not re-merged.
		req := ReportRequest{
			Worker: w.cfg.Name, LeaseID: lease.LeaseID,
			Records: batch, Final: final,
			Delivery: w.delivery(lease.LeaseID),
		}
		backoff := w.cfg.Poll
		for {
			_, err := w.cfg.Transport.Report(ctx, req)
			if err == nil {
				batch = batch[:0]
				return nil
			}
			if err == ErrUnauthorized {
				return err
			}
			if err == ErrBadLease || ctx.Err() != nil {
				return ErrBadLease
			}
			// The coordinator may be mid-restart: retry until the lease
			// verdict is in.
			if !sleep(ctx, backoff) {
				return ErrBadLease
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}
	for _, group := range groups {
		if len(batch) > 0 && len(batch)+len(group) > reportBatch {
			if err := send(false); err != nil {
				return err
			}
		}
		batch = append(batch, group...)
	}
	return send(true)
}

// sameDefinition compares two campaign definitions structurally.
func sameDefinition(a, b *campaign.Campaign) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ja) == string(jb)
}
