package shard

// The coordinator/worker wire protocol. Everything is JSON over the
// daemon's HTTP surface (POST /api/v1/shards/{tenant}/{name}/...), and
// the same request/response structs drive the in-process Direct
// transport, so a worker cannot tell one from the other.

import (
	"errors"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/runspec"
)

// Lease outcomes.
const (
	// LeaseRange hands the worker a range to execute.
	LeaseRange = "range"
	// LeaseWait means no range is free right now (all leased out), but
	// the campaign is not finished — poll again.
	LeaseWait = "wait"
	// LeaseDone means no work remains for this worker: the campaign is
	// complete, or the worker has been quarantined.
	LeaseDone = "done"
)

// ErrBadLease rejects a heartbeat or report whose lease the coordinator
// no longer recognises — it expired and was requeued, or predates a
// coordinator restart. The worker abandons the range and leases anew;
// requeue plus ingest dedup keep the plan covered exactly once.
var ErrBadLease = errors.New("shard: unknown or expired lease")

// HelloRequest registers a worker with the coordinator before it leases
// any work. Registration is advisory — a worker the coordinator has
// never heard of can still lease — but it makes the fleet visible in
// /progress from the moment a worker connects, and it is the cheapest
// call on which to discover a bad token.
type HelloRequest struct {
	Worker string `json:"worker"`
	// Host is the worker's self-reported host, for fleet display.
	Host string `json:"host,omitempty"`
}

// HelloResponse acknowledges a registration.
type HelloResponse struct {
	Status string `json:"status"`
	// Workers is how many workers the coordinator currently knows.
	Workers int `json:"workers"`
}

// LeaseRequest asks for a range on behalf of a named worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries a granted range together with everything the
// worker needs to execute it from a cold start: the campaign and target
// definitions for its shard database, the run spec, and the heartbeat
// period.
type LeaseResponse struct {
	Status  string `json:"status"`
	LeaseID string `json:"leaseId,omitempty"`
	Range   Range  `json:"range"`

	Campaign *campaign.Campaign         `json:"campaign,omitempty"`
	Target   *campaign.TargetSystemData `json:"target,omitempty"`
	Spec     runspec.Spec               `json:"spec"`
	// HeartbeatEvery is how often the worker must prove liveness while
	// it holds the lease.
	HeartbeatEvery time.Duration `json:"heartbeatEvery,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"leaseId"`
}

// ReportRequest delivers a batch of logged records for a lease. Final
// marks the last batch of the range; the coordinator flushes its ingest
// queue and retires the lease on it.
type ReportRequest struct {
	Worker  string                       `json:"worker"`
	LeaseID string                       `json:"leaseId"`
	Records []*campaign.ExperimentRecord `json:"records"`
	Final   bool                         `json:"final"`
	// Delivery is the batch's idempotency key. The coordinator's merge
	// was always idempotent (the two-pass filter drops already-accepted
	// sequences); the key makes the *acknowledgement* idempotent too: a
	// retried delivery whose first copy already landed — a response lost
	// to a timeout, reset, or asymmetric partition — is answered from
	// the coordinator's delivery cache instead of re-processed, so the
	// worker stops re-sending. Empty keys skip the cache.
	Delivery string `json:"delivery,omitempty"`
}

// ReportResponse acknowledges a batch. Accepted counts the records
// actually ingested; duplicates of already-merged sequences (requeue
// races, repeated references) are dropped silently.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}
