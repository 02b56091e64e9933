package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/server"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
)

// shardedKind is a registered target kind that builds scifi boards
// wrapped for timing. Shard workers construct their boards through the
// target registry from the lease, so this is the only way the benchmark
// can reach their target calls from outside. It declares and configures
// exactly what "scifi" does.
const shardedKind = "perfbench-scifi"

// shardedRec is the recorder of the sharded campaign in progress.
var shardedRec atomic.Pointer[recorder]

var registerOnce sync.Once

func registerShardedKind() {
	registerOnce.Do(func() {
		info, ok := core.LookupTarget("scifi")
		if !ok {
			panic("scifi target not registered")
		}
		core.RegisterTarget(core.TargetInfo{
			Kind:          shardedKind,
			Description:   "scifi boards timed by the campaign benchmark",
			Algorithm:     info.Algorithm,
			Deterministic: info.Deterministic,
			New: func(cfg core.TargetConfig) (core.TargetSystem, error) {
				ts, err := info.New(cfg)
				if err != nil {
					return nil, err
				}
				return wrapTarget(ts, shardedRec.Load(), "scifi"), nil
			},
			SystemData: info.SystemData,
		})
	})
}

const shardTenant = "bench"

// campaignTimeout bounds one campaign, so that a hung one fails the run
// well inside the time a run may take.
const campaignTimeout = 60 * time.Second

// httpCounter counts the benchmark's own API calls and their non-2xx
// replies.
type httpCounter struct {
	calls, failures int64
}

// call sends one JSON request and decodes a 2xx reply into out.
func (c *httpCounter) call(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.calls++
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.failures++
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.failures++
		return err
	}
	if resp.StatusCode/100 != 2 {
		c.failures++
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// runSharded runs the campaign through an in-process goofid, then checks
// the merged records the daemon left in its tenant database.
func (e *benchEnv) runSharded(w spec, seed int64, traced bool) (*result, error) {
	registerShardedKind()
	dir, err := e.dir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res, err := e.shardedCampaign(dir, w, seed, traced)
	if err != nil {
		return nil, err
	}
	camp := w.campaign(seed, e.victim)
	if err := checkMerged(filepath.Join(dir, "data"), camp, res); err != nil {
		return nil, err
	}
	return res, nil
}

// shardedCampaign runs the campaign through an in-process goofid on a
// loopback listener: submitted over HTTP as two shards with external
// workers, served by two shard.Workers with one board each on the real
// HTTPTransport, with default poll and lease settings.
func (e *benchEnv) shardedCampaign(dir string, w spec, seed int64, traced bool) (res *result, err error) {
	rec := newRecorder(traced)
	shardedRec.Store(rec)
	res = &result{seed: seed, traced: traced, boards: w.boards, rec: rec, steps: make(map[string]time.Duration)}
	camp := w.campaign(seed, e.victim)
	dataDir := filepath.Join(dir, "data")
	var api httpCounter
	// A campaign that hangs fails the run instead of outliving it.
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	cpu0 := sampleCPU()

	start := time.Now()
	srv, err := server.New(server.Config{DataDir: dataDir, Boards: w.boards})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if serr := srv.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
		if serr := hs.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}()
	base := "http://" + ln.Addr().String()
	statusURL := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, shardTenant, camp.Name)

	subStart := time.Now()
	if err := api.call(ctx, "POST", base+"/api/v1/campaigns", server.SubmitRequest{
		Tenant: shardTenant, Campaign: camp, TargetKind: shardedKind,
		Shards: w.boards, ExternalWorkers: true,
	}, nil); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	res.steps["server.submit_ms"] = submitted.Sub(subStart)
	// Workers attach once the daemon runs the job: a worker knocking
	// earlier gets "unknown lease" replies, which count as failures.
	if err := awaitState(ctx, &api, statusURL, server.StateRunning); err != nil {
		return nil, err
	}

	workerErrs := make([]error, w.boards)
	var wg sync.WaitGroup
	for i := 0; i < w.boards; i++ {
		wk, err := shard.NewWorker(shard.WorkerConfig{
			Name:   fmt.Sprintf("w%d", i),
			Dir:    filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Boards: 1,
			Transport: &timedTransport{rec: rec, inner: &shard.HTTPTransport{
				Base: base, Tenant: shardTenant, Campaign: camp.Name,
			}},
			OnRecord: func(r *campaign.ExperimentRecord) { rec.experimentLogged(r.Name, time.Now()) },
		})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = wk.Run(ctx)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(workerErrs...); err != nil {
		return nil, fmt.Errorf("shard workers: %w", err)
	}
	// The workers are done once the coordinator has every record; the
	// job is done once the daemon has merged and compacted them.
	if err := awaitState(ctx, &api, statusURL, server.StateDone); err != nil {
		return nil, err
	}
	fiEnd := time.Now()
	first := rec.firstInjectedAt()
	if first.IsZero() {
		return nil, fmt.Errorf("sharded campaign ran no experiment")
	}
	dbPath := filepath.Join(dataDir, shardTenant+".db")
	if res.dbBytes, err = fileBytes(dbPath, sqldb.WALPath(dbPath)); err != nil {
		return nil, err
	}

	aStart := time.Now()
	var rr server.ResultsResponse
	if err := api.call(ctx, "GET", statusURL+"/results", nil, &rr); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	res.analysis = time.Since(aStart)
	res.steps["server.results_ms"] = res.analysis
	cpu1 := sampleCPU()
	res.allocBytes, res.gcCPU, res.cpu = cpu1.alloc-cpu0.alloc, cpu1.gc-cpu0.gc, cpu1.total-cpu0.total

	res.setup = first.Sub(start)
	res.fi = fiEnd.Sub(first)
	res.report = rr.Report
	res.experiments = camp.NumExperiments
	rec.mu.Lock()
	if !rec.firstRange.IsZero() {
		res.steps["server.first_lease_ms"] = rec.firstRange.Sub(submitted)
	}
	res.busy = rec.fiBusy
	res.attempted = int64(camp.NumExperiments) + rec.calls + api.calls
	res.failed = rec.callErrors + api.failures
	if n := len(rec.latencies); n != camp.NumExperiments {
		rec.mu.Unlock()
		return nil, fmt.Errorf("sharded campaign logged %d experiment latencies, want %d", n, camp.NumExperiments)
	}
	rec.mu.Unlock()
	res.residual = residualFrac(res.busy, w.boards, res.fi)
	if res.failed != 0 {
		return nil, fmt.Errorf("sharded campaign: %d of %d operations failed", res.failed, res.attempted)
	}
	return res, nil
}

// awaitState polls a job until it reaches state (or done), failing if it
// ends any other way.
func awaitState(ctx context.Context, api *httpCounter, statusURL, state string) error {
	for {
		var js server.JobStatus
		if err := api.call(ctx, "GET", statusURL, nil, &js); err != nil {
			return err
		}
		switch js.State {
		case state, server.StateDone:
			return nil
		case server.StateFailed, server.StateCancelled:
			return fmt.Errorf("sharded job ended %s: %s", js.State, js.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkMerged reopens the daemon's tenant database after shutdown,
// fingerprints the merged records and checks their analysis classes.
func checkMerged(dataDir string, camp *campaign.Campaign, res *result) error {
	db, err := sqldb.OpenAt(filepath.Join(dataDir, shardTenant+".db"), sqldb.SyncBarrier)
	if err != nil {
		return err
	}
	defer db.Close()
	if res.digest, err = recordDigest(db, camp.Name); err != nil {
		return err
	}
	st, err := campaign.NewStore(db)
	if err != nil {
		return err
	}
	an, err := analysis.New(st, camp.Name)
	if err != nil {
		return err
	}
	rep, err := an.Run()
	if err != nil {
		return err
	}
	if rep.Render() != res.report {
		return fmt.Errorf("GET results rendered a different report from the merged records")
	}
	return checkCampaign(res, rep, camp)
}
