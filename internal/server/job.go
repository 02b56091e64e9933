package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/runspec"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/workload"

	// Registered target systems. The daemon reaches every target through
	// the core registry; the blank imports run each RegisterTarget init.
	_ "goofi/internal/pinlevel"
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
	_ "goofi/internal/swifi"
)

// SubmitRequest is the POST /api/v1/campaigns body: everything goofid
// needs to configure, set up, and run one campaign in a tenant's
// namespace. The zero values of the optional fields reproduce the
// `goofi run` defaults, which is what keeps a submitted campaign
// byte-identical to a CLI run of the same definition.
type SubmitRequest struct {
	// Tenant selects the namespace (its own database file).
	Tenant string `json:"tenant"`
	// Campaign is the full campaign definition (the CampaignData row).
	Campaign *campaign.Campaign `json:"campaign"`
	// TargetKind configures the target system server-side when the
	// tenant database does not hold it yet: any registered target kind
	// or alias — scifi, swifi, pinlevel, proc, ... (default scifi).
	// ImageBytes sizes swifi workload images.
	TargetKind string `json:"targetKind,omitempty"`
	ImageBytes int    `json:"imageBytes,omitempty"`
	// TargetParams carries target-specific key=value configuration
	// (e.g. "victim" for proc targets).
	TargetParams map[string]string `json:"targetParams,omitempty"`
	// Technique selects the injection algorithm: scifi,
	// swifi-preruntime, swifi-runtime, pin-level (default: the target
	// kind's own algorithm).
	Technique string `json:"technique,omitempty"`
	// Boards caps this campaign's parallelism on the shared fleet
	// (default 1).
	Boards int `json:"boards,omitempty"`
	// Checkpoint is the durable-cursor interval in experiments
	// (default core.DefaultCheckpointInterval; -1 disables).
	Checkpoint int `json:"checkpoint,omitempty"`
	// NoForward disables checkpoint fast-forwarding.
	NoForward bool `json:"noForward,omitempty"`
	// Retry policy knobs (both zero = legacy fail-fast semantics).
	MaxRetries            int `json:"maxRetries,omitempty"`
	BoardFailureThreshold int `json:"boardFailureThreshold,omitempty"`
	// Shards above zero runs the campaign through the sharded path,
	// partitioned into that many ranges. Zero inherits the daemon's
	// -shards default (still zero = solo execution).
	Shards int `json:"shards,omitempty"`
	// ExternalWorkers leaves execution to `goofi shard-worker`
	// processes attaching over HTTP instead of spawning in-process
	// workers, one per shard.
	ExternalWorkers bool `json:"externalWorkers,omitempty"`
}

// normalize fills the defaulted fields in place and returns the run
// spec the request asks for. It is the one place the JSON checkpoint
// convention (0 = daemon default, -1 = disabled) is mapped; a stored,
// already-normalized request normalizes to the same spec, which is how
// recovery rebuilds it.
func (sr *SubmitRequest) normalize() runspec.Spec {
	if sr.ImageBytes <= 0 {
		sr.ImageBytes = 4096
	}
	if sr.Boards <= 0 {
		sr.Boards = 1
	}
	if sr.Checkpoint == 0 {
		sr.Checkpoint = core.DefaultCheckpointInterval
	}
	if sr.Campaign != nil {
		// The CLI resolves built-in workloads by name and defaults the
		// log mode; a JSON submission gets the same ergonomics.
		if sr.Campaign.Workload.Source == "" {
			if spec, ok := workload.All()[sr.Campaign.Workload.Name]; ok {
				sr.Campaign.Workload = spec
			}
		}
		if sr.Campaign.LogMode == "" {
			sr.Campaign.LogMode = campaign.LogNormal
		}
	}
	params := make(map[string]string, len(sr.TargetParams)+1)
	for k, v := range sr.TargetParams {
		params[k] = v
	}
	if _, ok := params["image-bytes"]; !ok {
		params["image-bytes"] = strconv.Itoa(sr.ImageBytes)
	}
	spec := runspec.Spec{
		Settings: runspec.Settings{TargetKind: sr.TargetKind, Technique: sr.Technique, TargetParams: params},
		Harness: runspec.Harness{
			Boards:     sr.Boards,
			Checkpoint: max(sr.Checkpoint, 0),
			Retry: core.RetryPolicy{
				MaxRetries:            sr.MaxRetries,
				BoardFailureThreshold: sr.BoardFailureThreshold,
			},
		},
	}
	if sr.NoForward {
		spec.Forwarding = runspec.ForwardOff
	}
	return spec
}

// validate rejects a submission before any state is created.
func (sr *SubmitRequest) validate(spec runspec.Spec) error {
	if !campaign.ValidTenant(sr.Tenant) {
		return fmt.Errorf("invalid tenant name %q", sr.Tenant)
	}
	if sr.Campaign == nil {
		return fmt.Errorf("submission has no campaign definition")
	}
	if err := sr.Campaign.Validate(); err != nil {
		return err
	}
	if _, _, err := spec.Resolve(); err != nil {
		return err
	}
	if sr.Shards < 0 {
		return fmt.Errorf("negative shard count %d", sr.Shards)
	}
	return nil
}

// Job lifecycle states. Pending and running jobs become pending again
// on a daemon restart (recovery resumes them); done, failed and
// cancelled are terminal.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StatePaused    = "paused"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one submitted campaign: the durable spec plus the live runner
// state while it executes.
type job struct {
	spec    SubmitRequest
	run     runspec.Spec // what spec normalizes to
	recover bool         // re-enqueued at boot: resume from the durable cursor

	mu        sync.Mutex
	state     string
	errMsg    string
	summary   *core.Summary
	runner    *core.Runner       // solo path
	coord     *shard.Coordinator // sharded path
	shardStop func()             // stops a sharded run's workers and wait loop
	prog      *telemetry.Progress
	cancelled bool // user cancel (vs. daemon shutdown stop)
}

// stopWork halts whichever execution path the job is on. Callers hold
// j.mu.
func (j *job) stopWork() {
	if j.runner != nil {
		j.runner.Stop()
	}
	if j.shardStop != nil {
		j.shardStop()
	}
}

func (j *job) key() string { return jobKey(j.spec.Tenant, j.spec.Campaign.Name) }

func jobKey(tenant, name string) string { return tenant + "/" + name }

func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
}

// snapshot returns the job's API status view.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		Tenant:   j.spec.Tenant,
		Campaign: j.spec.Campaign.Name,
		State:    j.state,
		Error:    j.errMsg,
		Summary:  j.summary,
	}
	if j.prog != nil {
		s := j.prog.Snapshot()
		st.Progress = &s
	}
	return st
}

// Durable job table, one per tenant database: the daemon's boot
// recovery re-enqueues every row still marked pending.
const jobsDDL = `CREATE TABLE IF NOT EXISTS ServerJob (
		campaignName TEXT PRIMARY KEY,
		spec         BLOB NOT NULL,
		state        TEXT NOT NULL
	)`

func ensureJobTable(db *sqldb.DB) error {
	_, err := db.Exec(jobsDDL)
	return err
}

// putJobRow inserts or replaces the durable job row and raises a
// durability barrier, so an accepted submission survives a crash.
func putJobRow(db *sqldb.DB, spec *SubmitRequest, state string) error {
	blob, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("server: marshal job spec: %w", err)
	}
	name := spec.Campaign.Name
	n, err := db.Exec(`UPDATE ServerJob SET spec = ?, state = ? WHERE campaignName = ?`,
		sqldb.Blob(blob), sqldb.Text(state), sqldb.Text(name))
	if err != nil {
		return err
	}
	if n == 0 {
		if _, err := db.Exec(`INSERT INTO ServerJob VALUES (?, ?, ?)`,
			sqldb.Text(name), sqldb.Blob(blob), sqldb.Text(state)); err != nil {
			return err
		}
	}
	return db.Barrier()
}

func setJobRowState(db *sqldb.DB, name, state string) error {
	if _, err := db.Exec(`UPDATE ServerJob SET state = ? WHERE campaignName = ?`,
		sqldb.Text(state), sqldb.Text(name)); err != nil {
		return err
	}
	return db.Barrier()
}

// pendingJobRows loads the specs of every non-terminal job in a tenant
// database.
func pendingJobRows(db *sqldb.DB) ([]*SubmitRequest, error) {
	if err := ensureJobTable(db); err != nil {
		return nil, err
	}
	r, err := db.Query(`SELECT spec FROM ServerJob WHERE state = ?`, sqldb.Text(StatePending))
	if err != nil {
		return nil, err
	}
	var out []*SubmitRequest
	for _, row := range r.Rows {
		var spec SubmitRequest
		if err := json.Unmarshal(row[0].B, &spec); err != nil {
			return nil, fmt.Errorf("server: unmarshal job spec: %w", err)
		}
		out = append(out, &spec)
	}
	return out, nil
}

// execute runs one campaign end to end through the same builder as
// `goofi run` (and `goofi resume` for recovered jobs): same sink, same
// option set, same fresh-run reset, same teardown. That parity is what
// the byte-identity differential tests pin.
func (s *Server) execute(ctx context.Context, j *job) {
	spec := &j.spec
	name := spec.Campaign.Name
	// A queued job can be cancelled before it ever starts.
	j.mu.Lock()
	if j.cancelled {
		j.state = StateCancelled
		j.mu.Unlock()
		s.markDurable(name, spec.Tenant, StateCancelled)
		return
	}
	j.mu.Unlock()
	if spec.Shards > 0 {
		s.executeSharded(ctx, j)
		return
	}
	fail := func(err error) {
		j.setState(StateFailed, err.Error())
		s.markDurable(name, spec.Tenant, StateFailed)
	}
	st, _, release, err := s.tenants.Acquire(spec.Tenant)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	camp, err := st.GetCampaign(name)
	if err != nil {
		fail(err)
		return
	}

	// A recovered job resumes from whatever the interrupted run made
	// durable; a fresh submission starts from a clean slate.
	var resume *campaign.Checkpoint
	if j.recover {
		if resume, err = st.RecoverCursor(name); err != nil {
			fail(err)
			return
		}
	}
	prog := telemetry.NewProgress(s.fleet.Capacity())
	tr := telemetry.NewTracer()
	run, err := runspec.Build(st, camp, j.run, resume, runspec.Attach{Options: []core.RunnerOption{
		core.WithFleet(s.fleet),
		core.WithTelemetry(tr, prog),
	}})
	if err != nil {
		fail(err)
		return
	}
	defer run.Sink.Close()
	j.mu.Lock()
	j.runner = run.Runner
	j.prog = prog
	j.state = StateRunning
	if j.cancelled {
		// Cancel raced the startup: the handler had no runner to stop.
		run.Runner.Stop()
	}
	j.mu.Unlock()

	sum, runErr := run.Execute(ctx)
	j.mu.Lock()
	j.summary = sum
	cancelled := j.cancelled
	j.mu.Unlock()

	if ctx.Err() != nil {
		// Killed (crash simulation or hard daemon stop): leave the
		// durable state exactly as the interrupted run left it — the
		// pending job row plus the WAL — for recovery on the next boot.
		j.setState(StatePending, "")
		return
	}
	if runErr != nil {
		fail(runErr)
		return
	}
	complete, err := run.Finish(sum, tr)
	if err != nil {
		fail(err)
		return
	}
	switch {
	case cancelled:
		j.setState(StateCancelled, "")
		s.markDurable(name, spec.Tenant, StateCancelled)
	case complete:
		j.setState(StateDone, "")
		s.markDurable(name, spec.Tenant, StateDone)
	default:
		// Stopped short without a user cancel: the daemon is shutting
		// down. The durable row stays pending so the next boot resumes.
		j.setState(StatePending, "")
	}
}

// markDurable best-effort updates the tenant's job row; the in-memory
// state already reflects the outcome.
func (s *Server) markDurable(name, tenant, state string) {
	_, db, release, err := s.tenants.Acquire(tenant)
	if err != nil {
		return
	}
	defer release()
	_ = setJobRowState(db, name, state)
}
