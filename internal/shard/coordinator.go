package shard

// The coordinator: owns the canonical campaign store, partitions the
// plan, leases ranges, expires dead shards, and merges reported records
// through the ingest batcher. It never executes an experiment itself.
//
// Lease state machine (DESIGN.md §10):
//
//	pending range --Lease--> leased --Report(final)--> retired
//	      ^                   |
//	      |                   | heartbeat lapse (Sweep)
//	      +---- requeue <-----+
//
// A requeued lease re-enters pending as the coalesced runs of its
// still-unaccepted sequences, so work already merged from non-final
// reports is never redone. Acceptance is tracked per sequence number;
// a sequence is merged exactly once no matter how many leases ever
// covered it, which is what the partition property test pins.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/runspec"
)

// DefaultHeartbeat is the lease heartbeat period when the config leaves
// it zero; a lease lapses after three missed beats.
const DefaultHeartbeat = 500 * time.Millisecond

// DefaultMaxWorkerFailures quarantines a worker after this many expired
// leases (the PR 4 board-failure threshold lifted to shard level).
const DefaultMaxWorkerFailures = 3

// maxDeliveries bounds the report-delivery idempotency cache. Entries
// evict FIFO; 4096 covers every in-flight batch of any plausible fleet
// many times over (a worker holds at most a handful of unacked batches).
const maxDeliveries = 4096

// CoordinatorConfig wires a coordinator to a campaign.
type CoordinatorConfig struct {
	// Store is the canonical (merged) campaign store. The campaign and
	// target definitions must already be in it.
	Store    *campaign.Store
	Campaign *campaign.Campaign
	Target   *campaign.TargetSystemData
	// Spec is the run spec handed out with every lease: the settings
	// that decide the records plus the workers' harness policy (their
	// board count excepted — each worker sizes its own pool).
	Spec runspec.Spec
	// Shards is how many ranges the plan is partitioned into.
	Shards int
	// HeartbeatEvery is the lease liveness cadence (default
	// DefaultHeartbeat); a lease expires after LeaseTTL without a beat
	// (default 3×HeartbeatEvery).
	HeartbeatEvery time.Duration
	LeaseTTL       time.Duration
	// MaxWorkerFailures quarantines a worker after this many expired
	// leases (default DefaultMaxWorkerFailures).
	MaxWorkerFailures int
	// MinTTLRatio is the validated floor of LeaseTTL/HeartbeatEvery
	// (default 2). A TTL under two beats means a single delayed or
	// dropped heartbeat expires a healthy lease — a misconfiguration on
	// any real network — so NewCoordinator rejects it outright instead
	// of letting the deployment discover it as spurious requeues.
	MinTTLRatio int
	// QueueDepth bounds the ingest batcher (default 8 batches).
	QueueDepth int
	// NowFunc is the clock (test hook; default time.Now).
	NowFunc func() time.Time
}

type lease struct {
	id      string
	worker  string
	rng     Range
	expires time.Time
}

// workerInfo is what the coordinator remembers about a fleet member:
// when it appeared, when it last proved liveness, and where it came
// from. Liveness updates on every hello, lease, heartbeat and report.
type workerInfo struct {
	host       string
	registered time.Time
	lastBeat   time.Time
}

// Coordinator runs the shard protocol for one campaign. All methods are
// safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	bat *batcher

	mu       sync.Mutex
	pending  []Range
	leases   map[string]*lease
	accepted map[int]bool // sequences merged (or queued for merge)
	haveRef  bool
	failures map[string]int
	quarant  map[string]bool
	workers  map[string]*workerInfo
	leaseSeq int
	closed   bool
	doneCh   chan struct{}
	stopCh   chan struct{}

	// deliveries caches the acknowledgement of every keyed report batch
	// (FIFO-evicted at maxDeliveries) so a retried delivery is re-acked,
	// not re-processed. delivOrder tracks insertion for eviction.
	deliveries map[string]ReportResponse
	delivOrder []string

	sweeper sync.WaitGroup
}

// NewCoordinator builds a coordinator and recovers its progress from the
// store: sequences whose end records are already durable (a previous
// coordinator's merges) are treated as accepted, and only the holes are
// queued — a coordinator restart resumes the campaign instead of
// redoing it.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil || cfg.Campaign == nil || cfg.Target == nil {
		return nil, fmt.Errorf("shard: coordinator needs a store, campaign and target")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeat
	}
	if cfg.MinTTLRatio <= 0 {
		cfg.MinTTLRatio = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * cfg.HeartbeatEvery
	}
	if cfg.LeaseTTL < time.Duration(cfg.MinTTLRatio)*cfg.HeartbeatEvery {
		return nil, fmt.Errorf("shard: lease TTL %v < %d heartbeats of %v — one lost beat would expire healthy leases",
			cfg.LeaseTTL, cfg.MinTTLRatio, cfg.HeartbeatEvery)
	}
	if cfg.MaxWorkerFailures <= 0 {
		cfg.MaxWorkerFailures = DefaultMaxWorkerFailures
	}
	if cfg.NowFunc == nil {
		cfg.NowFunc = time.Now
	}
	cp, err := cfg.Store.RecoverCursor(cfg.Campaign.Name)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		bat:        newBatcher(cfg.Store, cfg.QueueDepth),
		leases:     make(map[string]*lease),
		accepted:   make(map[int]bool),
		failures:   make(map[string]int),
		quarant:    make(map[string]bool),
		workers:    make(map[string]*workerInfo),
		deliveries: make(map[string]ReportResponse),
		doneCh:     make(chan struct{}),
		stopCh:     make(chan struct{}),
	}
	for _, seq := range cp.Completed {
		c.accepted[seq] = true
	}
	c.haveRef = cp.Reference
	// Queue the holes: the full plan on a fresh campaign, the coalesced
	// remainder after a restart. Runs are re-split to the partition
	// granularity so a restart still spreads across the fleet.
	per := (cfg.Campaign.NumExperiments + cfg.Shards - 1) / cfg.Shards
	var missing []int
	for seq := 0; seq < cfg.Campaign.NumExperiments; seq++ {
		if !c.accepted[seq] {
			missing = append(missing, seq)
		}
	}
	for _, run := range coalesce(missing) {
		for lo := run.Lo; lo < run.Hi; lo += per {
			hi := lo + per
			if hi > run.Hi {
				hi = run.Hi
			}
			c.pending = append(c.pending, Range{Lo: lo, Hi: hi})
		}
	}
	if c.complete() {
		close(c.doneCh)
	}
	// Background sweeper: expires dead leases even when no worker is
	// calling in (all workers dead must still requeue their ranges).
	c.sweeper.Add(1)
	go func() {
		defer c.sweeper.Done()
		t := time.NewTicker(cfg.LeaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.Sweep()
			}
		}
	}()
	return c, nil
}

// complete reports whether every sequence and the reference are merged.
// Callers hold c.mu.
func (c *Coordinator) complete() bool {
	return c.haveRef && len(c.accepted) >= c.cfg.Campaign.NumExperiments &&
		len(c.pending) == 0 && len(c.leases) == 0
}

// touchWorker records liveness for a worker, creating its fleet entry
// on first contact. Callers hold c.mu.
func (c *Coordinator) touchWorker(name string, now time.Time) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{registered: now}
		c.workers[name] = w
	}
	w.lastBeat = now
	return w
}

// Hello registers a worker with the fleet before it leases any work.
// Registration is advisory for the lease protocol but it is the call on
// which an external worker discovers a bad token, and it makes the
// fleet visible in /progress from the first connection.
func (c *Coordinator) Hello(req HelloRequest) HelloResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorker(req.Worker, c.cfg.NowFunc())
	if req.Host != "" {
		w.host = req.Host
	}
	return HelloResponse{Status: "ok", Workers: len(c.workers)}
}

// WorkerStatus is one fleet member's view in Fleet().
type WorkerStatus struct {
	Name        string  `json:"name"`
	Host        string  `json:"host,omitempty"`
	Quarantined bool    `json:"quarantined"`
	Leases      int     `json:"leases"`
	Failures    int     `json:"failures"`
	LastBeatAge float64 `json:"last_beat_seconds"`
}

// Fleet reports every worker the coordinator has heard from, sorted by
// name, with its live lease count, expiry tally and heartbeat age —
// the membership view /progress serves for a sharded job.
func (c *Coordinator) Fleet() []WorkerStatus {
	now := c.cfg.NowFunc()
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[string]int, len(c.leases))
	for _, l := range c.leases {
		held[l.worker]++
	}
	out := make([]WorkerStatus, 0, len(c.workers))
	for name, w := range c.workers {
		out = append(out, WorkerStatus{
			Name:        name,
			Host:        w.host,
			Quarantined: c.quarant[name],
			Leases:      held[name],
			Failures:    c.failures[name],
			LastBeatAge: now.Sub(w.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Lease grants the next pending range to a worker.
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorker(req.Worker, c.cfg.NowFunc())
	c.sweepLocked(c.cfg.NowFunc())
	if c.closed || c.quarant[req.Worker] {
		// A quarantined worker is retired exactly like a failed board:
		// it gets no more work, the fleet shrinks by one.
		return LeaseResponse{Status: LeaseDone}
	}
	if len(c.pending) == 0 {
		if c.complete() {
			return LeaseResponse{Status: LeaseDone}
		}
		return LeaseResponse{Status: LeaseWait, HeartbeatEvery: c.cfg.HeartbeatEvery}
	}
	rng := c.pending[0]
	c.pending = c.pending[1:]
	c.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("l%04d", c.leaseSeq),
		worker:  req.Worker,
		rng:     rng,
		expires: c.cfg.NowFunc().Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	return LeaseResponse{
		Status:         LeaseRange,
		LeaseID:        l.id,
		Range:          rng,
		Campaign:       c.cfg.Campaign,
		Target:         c.cfg.Target,
		Spec:           c.cfg.Spec,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
	}
}

// Heartbeat extends a lease; ErrBadLease tells the worker its lease is
// gone (expired and requeued, or lost to a coordinator restart) and the
// range should be abandoned.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.NowFunc()
	c.touchWorker(req.Worker, now)
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.Worker {
		return ErrBadLease
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Report merges a batch of records for a lease. Only records the lease
// covers and that have not been merged before are accepted: end records
// by sequence number, the reference once per campaign, and detail-mode
// trace rows with their parent. The write happens through the batcher;
// a final report flushes it so retiring a range implies durability.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	c.mu.Lock()
	now := c.cfg.NowFunc()
	c.touchWorker(req.Worker, now)
	if req.Delivery != "" {
		if resp, ok := c.deliveries[req.Delivery]; ok {
			// A retried delivery of a batch that already landed: the
			// response was lost (timeout, reset, asymmetric partition),
			// not the request. Acknowledge from the cache — even when the
			// lease is gone, because a retried *final* report retired it
			// the first time through — and count it as a beat when the
			// lease still lives.
			if l := c.leases[req.LeaseID]; l != nil && l.worker == req.Worker {
				l.expires = now.Add(c.cfg.LeaseTTL)
			}
			c.mu.Unlock()
			mDelivDeduped.Inc()
			return resp, nil
		}
	}
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.Worker {
		c.mu.Unlock()
		return ReportResponse{}, ErrBadLease
	}
	l.expires = now.Add(c.cfg.LeaseTTL) // a report is a heartbeat
	name := c.cfg.Campaign.Name
	refName := campaign.ReferenceName(name)
	// takenNames are end records accepted from this batch; trace rows
	// ride along with their parent. Two passes, so a batch may carry a
	// group's trace rows before or after its end record.
	taken := make(map[string]bool)
	var ingest []*campaign.ExperimentRecord
	for _, rec := range req.Records {
		if rec == nil || rec.Campaign != name || rec.Step >= 0 {
			continue
		}
		if rec.Name == refName {
			if !c.haveRef {
				c.haveRef = true
				taken[rec.Name] = true
				ingest = append(ingest, rec)
			}
			continue
		}
		seq := rec.Data.Seq
		if seq < l.rng.Lo || seq >= l.rng.Hi || c.accepted[seq] {
			continue
		}
		c.accepted[seq] = true
		taken[rec.Name] = true
		ingest = append(ingest, rec)
	}
	for _, rec := range req.Records {
		if rec != nil && rec.Campaign == name && rec.Step >= 0 && taken[rec.Parent] {
			ingest = append(ingest, rec)
		}
	}
	final := req.Final
	if final {
		delete(c.leases, req.LeaseID)
		// Anything the range did not deliver goes back in the queue.
		c.requeueLocked(l)
	}
	done := final && c.complete()
	c.mu.Unlock()

	// The batcher write happens outside the lock so backpressure stalls
	// only reporters, never leases or heartbeats.
	if err := c.bat.submit(ingest); err != nil {
		return ReportResponse{}, err
	}
	if final {
		if err := c.bat.Flush(); err != nil {
			return ReportResponse{}, err
		}
	} else {
		// The submit may have stalled on backpressure — time spent queued
		// in the merge is the coordinator's, not the worker's, so it must
		// not count against the lease.
		c.mu.Lock()
		if l := c.leases[req.LeaseID]; l != nil && l.worker == req.Worker {
			l.expires = c.cfg.NowFunc().Add(c.cfg.LeaseTTL)
		}
		c.mu.Unlock()
	}
	resp := ReportResponse{Accepted: len(ingest)}
	if req.Delivery != "" {
		// Only a fully processed (and, for final reports, durably
		// flushed) delivery is cached; an errored one must re-process.
		c.mu.Lock()
		c.cacheDeliveryLocked(req.Delivery, resp)
		c.mu.Unlock()
	}
	if done {
		c.finish()
	}
	return resp, nil
}

// cacheDeliveryLocked remembers a delivery's acknowledgement, evicting
// the oldest entry past maxDeliveries. Callers hold c.mu.
func (c *Coordinator) cacheDeliveryLocked(key string, resp ReportResponse) {
	if _, ok := c.deliveries[key]; !ok {
		c.delivOrder = append(c.delivOrder, key)
		if len(c.delivOrder) > maxDeliveries {
			delete(c.deliveries, c.delivOrder[0])
			c.delivOrder = c.delivOrder[1:]
		}
	}
	c.deliveries[key] = resp
}

// requeueLocked returns a lease's unmerged sequences to the pending
// queue as coalesced runs. Callers hold c.mu.
func (c *Coordinator) requeueLocked(l *lease) {
	var left []int
	for seq := l.rng.Lo; seq < l.rng.Hi; seq++ {
		if !c.accepted[seq] {
			left = append(left, seq)
		}
	}
	c.pending = append(c.pending, coalesce(left)...)
}

// Sweep expires every lease whose heartbeat lapsed, requeues its
// unmerged sequences, and quarantines workers that keep dying. It runs
// from the background ticker and at the top of every Lease call.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	done := false
	c.sweepLocked(c.cfg.NowFunc())
	// Expiring the last outstanding lease can complete the campaign
	// (its sequences may all have been merged by non-final reports).
	done = c.complete() && !c.closed
	c.mu.Unlock()
	if done {
		c.finish()
	}
}

func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.requeueLocked(l)
		c.failures[l.worker]++
		if c.failures[l.worker] >= c.cfg.MaxWorkerFailures {
			c.quarant[l.worker] = true
		}
	}
}

// finish flushes the batcher and signals Done exactly once.
func (c *Coordinator) finish() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	select {
	case <-c.doneCh:
		c.mu.Unlock()
		return
	default:
	}
	close(c.doneCh)
	c.mu.Unlock()
}

// Done is closed once every sequence and the reference are durably
// merged.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err surfaces the first merge error (store write failures poison the
// ingest path).
func (c *Coordinator) Err() error { return c.bat.firstErr() }

// Progress reports merged experiments out of the plan total.
func (c *Coordinator) Progress() (done, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.accepted), c.cfg.Campaign.NumExperiments
}

// Complete reports whether the campaign fully merged.
func (c *Coordinator) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.haveRef && len(c.accepted) >= c.cfg.Campaign.NumExperiments
}

// Close stops the sweeper and drains the ingest batcher. The store stays
// open (the coordinator never owned it).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stopCh)
	}
	c.mu.Unlock()
	c.sweeper.Wait()
	return c.bat.Close()
}
