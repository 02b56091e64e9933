package shard_test

// The sharding correctness pin: a campaign executed as N shards — by the
// daemon's in-process workers, by external workers over HTTP, with a
// worker killed mid-range, and across a coordinator kill/restart — must
// produce LoggedSystemState records and an analysis report byte-identical
// to a solo `goofi run` of the same definition. These tests are part of
// tier 1 and run under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/runspec"
	"goofi/internal/scifi"
	"goofi/internal/server"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// conformanceCampaign is the quickstart campaign scaled to n
// experiments — the same definition the server differential tests use.
func conformanceCampaign(name string, n int) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           2026,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.All()["sort16"],
		LogMode:        campaign.LogNormal,
	}
}

// soloRun executes camp exactly the way `goofi run` does and returns the
// store holding the ground-truth results.
func soloRun(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "solo.db"), sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData(camp.TargetName)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	factory := func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }
	sink := campaign.NewBatchingSink(st, 0)
	r, err := core.NewRunner(factory(), core.SCIFI, camp, tsd,
		core.WithSink(sink),
		core.WithBoards(2, factory),
		core.WithCheckpoints(core.DefaultCheckpointInterval))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteCheckpoint(camp.Name); err != nil {
		t.Fatal(err)
	}
	return st
}

// soloRunSpec executes camp under spec on two boards through the
// builder `goofi run` uses, and returns the store and the summary.
func soloRunSpec(t *testing.T, camp *campaign.Campaign, spec runspec.Spec) (*campaign.Store, *core.Summary) {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(t.TempDir(), "solo.db"), sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(scifi.TargetSystemData(camp.TargetName)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	spec.Boards = 2
	run, err := runspec.Build(st, camp, spec, nil, runspec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finish(sum, nil); err != nil {
		t.Fatal(err)
	}
	return st, sum
}

// recordBytes renders every end-of-experiment record to canonical JSON
// in sequence order.
func recordBytes(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(blob)
	}
	return out
}

func reportText(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	rep, err := analysis.AnalyzeAndStore(st, name)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Render()
}

// assertIdentical fails unless st's records and report match the solo
// ground truth byte for byte.
func assertIdentical(t *testing.T, st *campaign.Store, name string, wantRecs []string, wantReport string) {
	t.Helper()
	got := recordBytes(t, st, name)
	if len(got) != len(wantRecs) {
		t.Fatalf("sharded run has %d records, solo run has %d", len(got), len(wantRecs))
	}
	for i := range got {
		if got[i] != wantRecs[i] {
			t.Fatalf("record %d differs\n sharded: %s\n    solo: %s", i, got[i], wantRecs[i])
		}
	}
	if gotRep := reportText(t, st, name); gotRep != wantReport {
		t.Fatalf("analysis report differs\n sharded:\n%s\n solo:\n%s", gotRep, wantReport)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, base, tenant, name string) server.JobStatus {
	t.Helper()
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, tenant, name)
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s/%s stuck in state %s", tenant, name, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tenantStore opens a tenant database read-side after the daemon shut
// down, for the byte comparison.
func tenantStore(t *testing.T, dataDir, tenant string) *campaign.Store {
	t.Helper()
	db, err := sqldb.OpenAt(filepath.Join(dataDir, tenant+".db"), sqldb.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardConformanceCounts is the table-driven core of the suite:
// shards ∈ {1, 2, 4} through the daemon's sharded path (in-process
// workers over the Direct transport) against the solo ground truth.
func TestShardConformanceCounts(t *testing.T) {
	const n = 40
	camp := conformanceCampaign("conf", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "conf")
	wantReport := reportText(t, solo, "conf")

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := server.New(server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
				Tenant: "alice", Campaign: camp, Shards: shards,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, body)
			}
			if st := waitState(t, ts.URL, "alice", "conf"); st.State != server.StateDone {
				t.Fatalf("state = %s (err %q)", st.State, st.Error)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, tenantStore(t, dir, "alice"), "conf", wantRecs, wantReport)
		})
	}
}

// traceBytes renders every detail-mode trace row, grouped under its
// parent in sequence order, to canonical JSON.
func traceBytes(t *testing.T, st *campaign.Store, name string) []string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range recs {
		trace, err := st.Trace(rec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range trace {
			blob, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(blob))
		}
	}
	return out
}

// TestShardConformanceDetailTrace shards a detail-mode campaign, whose
// per-instruction trace rows must ride with their parent end record
// through streamed and final reports alike, and checks the full trace —
// not just the end records — against the solo run byte for byte.
func TestShardConformanceDetailTrace(t *testing.T) {
	const n = 8
	camp := conformanceCampaign("confdet", n)
	camp.LogMode = campaign.LogDetail
	camp.RandomWindow = [2]uint64{10, 400}
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confdet")
	wantReport := reportText(t, solo, "confdet")
	wantTrace := traceBytes(t, solo, "confdet")
	if len(wantTrace) == 0 {
		t.Fatal("detail campaign produced no trace rows; the test is vacuous")
	}

	dir := t.TempDir()
	// The default heartbeat: mid-range streaming is driven by the
	// reportBatch kick (every experiment's trace group is far larger than
	// one batch), not by the ticker, so no tight cadence is needed.
	s, err := server.New(server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if st := waitState(t, ts.URL, "alice", "confdet"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := tenantStore(t, dir, "alice")
	assertIdentical(t, st, "confdet", wantRecs, wantReport)
	gotTrace := traceBytes(t, st, "confdet")
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("sharded run has %d trace rows, solo run has %d", len(gotTrace), len(wantTrace))
	}
	for i := range gotTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("trace row %d differs\n sharded: %s\n    solo: %s", i, gotTrace[i], wantTrace[i])
		}
	}
}

// TestShardConformanceWorkerKilled runs two external workers over the
// real HTTP transport and kills one mid-range; the survivor picks up the
// requeued lease and the merged result still matches the solo run byte
// for byte.
func TestShardConformanceWorkerKilled(t *testing.T) {
	const n = 60
	camp := conformanceCampaign("confkill", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confkill")
	wantReport := reportText(t, solo, "confkill")

	dir := t.TempDir()
	s, err := server.New(server.Config{
		DataDir: dir, Boards: 4, MaxConcurrent: 1,
		// A fast heartbeat so the killed worker's lease expires quickly —
		// but not so fast that scheduler jitter on a loaded single-CPU
		// box expires healthy leases.
		ShardHeartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: "alice", Campaign: camp, Shards: 2, ExternalWorkers: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	workerDir := t.TempDir()
	transport := func() *shard.HTTPTransport {
		return &shard.HTTPTransport{Base: ts.URL, Tenant: "alice", Campaign: "confkill"}
	}
	var wg sync.WaitGroup
	// Worker zero is killed (context cut, no teardown, no report) after
	// logging a handful of records of its first range.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var killOnce sync.Once
	var logged int
	var loggedMu sync.Mutex
	w0, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w0", Dir: filepath.Join(workerDir, "w0"), Boards: 1,
		Transport: transport(), Poll: 10 * time.Millisecond,
		OnRecord: func(*campaign.ExperimentRecord) {
			loggedMu.Lock()
			logged++
			die := logged >= 4
			loggedMu.Unlock()
			if die {
				killOnce.Do(kill)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w0.Run(killCtx) // dies by design
	}()

	w1, err := shard.NewWorker(shard.WorkerConfig{
		Name: "w1", Dir: filepath.Join(workerDir, "w1"), Boards: 1,
		Transport: transport(), Poll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		werr <- w1.Run(ctx)
	}()

	if st := waitState(t, ts.URL, "alice", "confkill"); st.State != server.StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	wg.Wait()
	if err := <-werr; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, tenantStore(t, dir, "alice"), "confkill", wantRecs, wantReport)
}

// TestShardConformanceCoordinatorRestart kills the daemon mid-sharded-
// campaign with no teardown at all, then boots a fresh one on the same
// data directory: recovery must resume the merge from the durable rows
// (not redo it) and the final result must still match the solo run.
func TestShardConformanceCoordinatorRestart(t *testing.T) {
	// Large enough that the workers are still executing when the first
	// merged progress becomes visible — the kill below must land while
	// work remains, or recovery has nothing to prove.
	const n = 2400
	camp := conformanceCampaign("confboot", n)
	solo := soloRun(t, camp)
	wantRecs := recordBytes(t, solo, "confboot")
	wantReport := reportText(t, solo, "confboot")

	// Killing mid-merge is a race the test can lose: with the thor fast
	// path the whole campaign can execute and merge between two status
	// polls, leaving the restarted coordinator nothing to recover. Each
	// attempt uses a fresh data directory; an attempt only counts when
	// the kill landed while work remained, and the first such attempt
	// carries all the assertions.
	const attempts = 5
	for attempt := 0; attempt < attempts; attempt++ {
		dir := t.TempDir()
		cfg := server.Config{DataDir: dir, Boards: 4, MaxConcurrent: 1}
		s1, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts1 := httptest.NewServer(s1.Handler())
		resp, body := postJSON(t, ts1.URL+"/api/v1/campaigns", server.SubmitRequest{
			Tenant: "alice", Campaign: camp, Shards: 2, Checkpoint: 4,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
		// Pull the plug at the first sign of merged progress.
		url := ts1.URL + "/api/v1/campaigns/alice/confboot"
		deadline := time.Now().Add(60 * time.Second)
		finished := false
		for {
			hr, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			err = json.NewDecoder(hr.Body).Decode(&st)
			hr.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Progress != nil && st.Progress.Done >= 1 {
				break
			}
			if st.State == server.StateDone {
				finished = true
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign made no visible progress (state %s)", st.State)
			}
			time.Sleep(time.Millisecond)
		}
		s1.Kill()
		ts1.Close()
		if finished {
			continue // done before we could kill: recovery not exercised
		}

		s2, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(s2.Handler())
		if st := waitState(t, ts2.URL, "alice", "confboot"); st.State != server.StateDone {
			t.Fatalf("recovered state = %s (err %q)", st.State, st.Error)
		}
		var st server.JobStatus
		hr, err := http.Get(ts2.URL + "/api/v1/campaigns/alice/confboot")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if st.Summary == nil || st.Summary.Experiments >= n {
			// The merge outran the kill after all (everything was durable
			// before the plug was pulled, so recovery had nothing to do);
			// this attempt proves nothing.
			shutdownServer(t, s2)
			ts2.Close()
			continue
		}
		// Reaching here means the restarted coordinator resumed rather
		// than restarted: its summary counts only the post-boot merge,
		// strictly below the campaign total.
		shutdownServer(t, s2)
		ts2.Close()
		assertIdentical(t, tenantStore(t, dir, "alice"), "confboot", wantRecs, wantReport)
		return
	}
	t.Fatalf("no attempt out of %d exercised recovery: the campaign fully merged before every kill", attempts)
}

// shutdownServer drains a server with a bounded grace period.
func shutdownServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
