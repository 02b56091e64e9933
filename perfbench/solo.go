package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"

	// Registered target systems, as linked into the goofi CLI.
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
)

// result is one campaign's measurements.
type result struct {
	seed        int64
	traced      bool
	boards      int
	experiments int
	// setup, fi and analysis are the three phases a user waits through.
	setup, fi, analysis time.Duration
	dbBytes             int64
	// steps holds single timed calls outside the target and sink
	// wrappers (store, database, runner, analysis, server).
	steps map[string]time.Duration
	rec   *recorder
	sum   *core.Summary // nil for sharded campaigns
	// report is the rendered analysis report; digest fingerprints the
	// logged records.
	report, digest string
	allocBytes     uint64
	gcCPU, cpu     float64
	// residual is core.residual_frac; busy the layer sum behind it.
	residual          float64
	busy              time.Duration
	attempted, failed int64
}

// benchEnv is what every campaign of one benchmark run shares.
type benchEnv struct {
	work   string // campaign databases, removed at exit
	victim string
	runs   int
}

// dir returns a fresh, empty directory for one campaign.
func (e *benchEnv) dir() (string, error) {
	e.runs++
	d := filepath.Join(e.work, fmt.Sprintf("c%03d", e.runs))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// targetConfig carries the victim path to proc targets; others ignore it.
func (e *benchEnv) targetConfig() core.TargetConfig {
	return core.TargetConfig{Params: map[string]string{"victim": e.victim}}
}

// runSolo runs one campaign the way `goofi configure`, `setup`, `run`
// and `analyze` do with their production defaults: a file-backed WAL
// store with SyncBarrier, a BatchingSink, durable checkpoints every
// core.DefaultCheckpointInterval experiments, and interval forwarding
// with thor's fast path on.
func (e *benchEnv) runSolo(w spec, seed int64, traced bool, boards int) (*result, error) {
	dir, err := e.dir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := newRecorder(traced)
	res := &result{seed: seed, traced: traced, boards: boards, rec: rec, steps: make(map[string]time.Duration)}
	step := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		res.steps[name] += time.Since(start)
		return err
	}
	path := filepath.Join(dir, "goofi.db")
	cfg := e.targetConfig()
	info, ok := core.LookupTarget(w.target)
	if !ok {
		return nil, fmt.Errorf("target %q not registered", w.target)
	}
	alg, ok := core.Algorithms()[info.Algorithm]
	if !ok {
		return nil, fmt.Errorf("algorithm %q not registered", info.Algorithm)
	}
	camp := w.campaign(seed, e.victim)
	cpu0 := sampleCPU()

	start := time.Now()
	db, err := sqldb.OpenAt(path, sqldb.SyncBarrier)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	st, err := campaign.NewStore(db)
	if err != nil {
		return nil, err
	}
	// configure
	tsd, err := info.SystemData(camp.TargetName, cfg)
	if err != nil {
		return nil, err
	}
	if err := step("campaign.put_target_system_ms", func() error { return st.PutTargetSystem(tsd) }); err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	// setup
	if err := step("campaign.put_campaign_ms", func() error { return st.PutCampaign(camp) }); err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	// run
	stored, err := st.GetCampaign(camp.Name)
	if err != nil {
		return nil, err
	}
	var storedTSD *campaign.TargetSystemData
	if err := step("campaign.get_target_system_ms", func() (err error) {
		storedTSD, err = st.GetTargetSystem(stored.TargetName)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := info.New(cfg); err != nil {
		return nil, fmt.Errorf("target %q: %w", info.Kind, err)
	}
	factory := boardFactory(info, cfg, rec, w.layer)
	bsink := campaign.NewBatchingSink(st, 0)
	defer bsink.Close()
	var runner *core.Runner
	if err := step("core.new_runner_ms", func() (err error) {
		runner, err = core.NewRunner(factory(), alg, stored, storedTSD,
			core.WithSink(&timedSink{inner: bsink, rec: rec}),
			core.WithBoards(boards, factory),
			core.WithTelemetry(nil, telemetry.NewProgress(boards)),
			core.WithCheckpoints(core.DefaultCheckpointInterval))
		return err
	}); err != nil {
		return nil, err
	}
	if err := st.DeleteCheckpoint(camp.Name); err != nil {
		return nil, err
	}
	if err := st.DeleteExperiments(camp.Name); err != nil {
		return nil, err
	}
	if err := st.DeleteTelemetry(camp.Name); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	built := time.Now()
	sum, err := runner.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := step("campaign.sink_close_ms", bsink.Close); err != nil {
		return nil, err
	}
	if err := st.DeleteCheckpoint(camp.Name); err != nil {
		return nil, err
	}
	if err := step("sqldb.checkpoint_ms", db.Checkpoint); err != nil {
		return nil, err
	}
	fiEnd := time.Now()
	if err := db.Close(); err != nil {
		return nil, err
	}
	first := rec.firstInjectedAt()
	if first.IsZero() {
		return nil, fmt.Errorf("campaign %s ran no experiment", camp.Name)
	}
	res.setup = first.Sub(start)
	res.fi = fiEnd.Sub(first)
	res.steps["core.reference_ms"] = first.Sub(built)
	res.sum = sum
	res.experiments = sum.Experiments
	res.attempted, res.failed = experimentAttempts(sum)
	if res.dbBytes, err = fileBytes(path, sqldb.WALPath(path)); err != nil {
		return nil, err
	}
	res.busy = rec.fiBusy + res.steps["campaign.sink_close_ms"] + res.steps["sqldb.checkpoint_ms"]
	res.residual = residualFrac(res.busy, boards, res.fi)

	// analyze: reopen the finished database from disk.
	aStart := time.Now()
	var st2 *campaign.Store
	var db2 *sqldb.DB
	if err := step("sqldb.open_ms", func() (err error) {
		if db2, err = sqldb.OpenAt(path, sqldb.SyncBarrier); err != nil {
			return err
		}
		st2, err = campaign.NewStore(db2)
		return err
	}); err != nil {
		return nil, err
	}
	defer db2.Close()
	var an *analysis.Analyzer
	var rep *analysis.Report
	if err := step("analysis.new_ms", func() (err error) {
		an, err = analysis.New(st2, camp.Name)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("analysis.run_ms", func() (err error) {
		rep, err = an.Run()
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("analysis.write_results_ms", func() error { return analysis.WriteResults(st2, rep) }); err != nil {
		return nil, err
	}
	if err := db2.Checkpoint(); err != nil {
		return nil, err
	}
	res.report = rep.Render()
	res.analysis = time.Since(aStart)
	cpu1 := sampleCPU()
	res.allocBytes, res.gcCPU, res.cpu = cpu1.alloc-cpu0.alloc, cpu1.gc-cpu0.gc, cpu1.total-cpu0.total

	// Outside the measured phases: decode cost on its own, and the
	// record digest the determinism checks compare.
	if traced {
		if err := step("campaign.experiments_decode_ms", func() error {
			_, err := st2.Experiments(camp.Name)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if res.digest, err = recordDigest(db2, camp.Name); err != nil {
		return nil, err
	}
	if err := checkCampaign(res, rep, camp); err != nil {
		return nil, err
	}
	return res, db2.Close()
}

// boardFactory builds wrapped boards from a registry entry. The first
// construction is checked eagerly by the caller, as the CLI does, so a
// later failure is a programming error.
func boardFactory(info core.TargetInfo, cfg core.TargetConfig, rec *recorder, layer string) func() core.TargetSystem {
	return func() core.TargetSystem {
		ts, err := info.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("target %q factory: %v", info.Kind, err))
		}
		return wrapTarget(ts, rec, layer)
	}
}

// recordDigest fingerprints every LoggedSystemState row of a campaign,
// in name order: two runs with equal digests logged byte-identical
// records.
func recordDigest(db *sqldb.DB, campaignName string) (string, error) {
	r, err := db.Query(`SELECT experimentName, parentExperiment, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? ORDER BY experimentName`, sqldb.Text(campaignName))
	if err != nil {
		return "", err
	}
	if len(r.Rows) == 0 {
		return "", fmt.Errorf("campaign %s logged no records", campaignName)
	}
	h := sha256.New()
	for _, row := range r.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%d:%q;", v.K, v.String())
			h.Write(v.B)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileBytes sums the sizes of the files that exist among paths.
func fileBytes(paths ...string) (int64, error) {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
