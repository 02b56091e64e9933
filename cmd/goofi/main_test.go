package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/runspec"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// runCmd invokes the CLI entry point with a temp-dir database.
func runCmd(t *testing.T, args ...string) error {
	t.Helper()
	return run(args)
}

func dbPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.db")
}

func TestFullPhaseWorkflow(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db, "-target", "thor-board"},
		{"setup", "-db", db, "-campaign", "cli-test", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "8", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "cli-test", "-quiet"},
		{"analyze", "-db", db, "-campaign", "cli-test", "-sql"},
		{"list", "-db", db},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatalf("database file not written: %v", err)
	}
}

func TestRunParallelBoards(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "par", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "8", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "par", "-boards", "4", "-quiet"},
		{"analyze", "-db", db, "-campaign", "par"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestRunWithPreInjection(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "pi", "-workload", "sort16",
			"-locations", "cpu.r1,cpu.r2,cpu.r8", "-window", "10:1600",
			"-experiments", "5", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "pi", "-pre-injection", "-quiet"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestMergeCommand(t *testing.T) {
	db := dbPath(t)
	base := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "a", "-workload", "sort16",
			"-locations", "cpu.r1", "-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
		{"setup", "-db", db, "-campaign", "b", "-workload", "sort16",
			"-locations", "cpu.r2", "-window", "10:1600", "-experiments", "4", "-timeout", "100000"},
	}
	for _, step := range base {
		if err := runCmd(t, step...); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCmd(t, "merge", "-db", db, "-into", "ab", "a", "b"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := runCmd(t, "run", "-db", db, "-campaign", "ab", "-quiet"); err != nil {
		t.Fatalf("run merged: %v", err)
	}
}

func TestRerunCommand(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "rr", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "rr", "-quiet"},
		{"run", "-db", db, "-campaign", "rr", "-rerun", "rr/exp00001", "-quiet"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

// TestResumeCommand interrupts a checkpointed campaign mid-run,
// abandons the database file the way a killed process would (no
// compaction, no graceful close), and checks that `goofi resume`
// finishes the campaign and clears the cursor.
func TestResumeCommand(t *testing.T) {
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "res", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "10", "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}

	// The interrupted run: stop after 3 experiments, then walk away from
	// the open database. Recovery must work from the snapshot and
	// write-ahead log alone.
	sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.NewStore(sdb)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := st.GetCampaign("res")
	if err != nil {
		t.Fatal(err)
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		t.Fatal(err)
	}
	var (
		r    *core.Runner
		mu   sync.Mutex
		seen int
	)
	r, err = core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd,
		core.WithSink(st), core.WithCheckpoints(2),
		core.WithProgress(func(ev core.ProgressEvent) {
			if ev.Phase != "experiment" {
				return
			}
			mu.Lock()
			seen++
			stop := seen == 3
			mu.Unlock()
			if stop {
				r.Stop()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments >= camp.NumExperiments {
		t.Fatalf("interruption failed: %d experiments ran", sum.Experiments)
	}

	if err := runCmd(t, "resume", "-db", db, "-campaign", "res", "-quiet"); err != nil {
		t.Fatalf("goofi resume: %v", err)
	}

	sdb2, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb2.Close()
	st2, err := campaign.NewStore(sdb2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st2.Experiments("res")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != camp.NumExperiments+1 { // + reference run
		t.Errorf("after resume: %d logged records, want %d", len(recs), camp.NumExperiments+1)
	}
	cp, err := st2.GetCheckpoint("res")
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Errorf("completed campaign still has a cursor: %+v", cp)
	}
	sdb2.Close()

	// The resumed data feeds the analysis phase like any other.
	if err := runCmd(t, "analyze", "-db", db, "-campaign", "res"); err != nil {
		t.Fatalf("goofi analyze after resume: %v", err)
	}
}

// captureRun invokes the CLI entry point and returns what it printed.
func captureRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// loggedState returns a campaign's LoggedSystemState rows as JSON and
// its rendered analysis report.
func loggedState(t *testing.T, db, name string) ([]string, string) {
	t.Helper()
	st, sdb, err := openStore(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = string(b)
	}
	rep, err := analysis.AnalyzeAndStore(st, name)
	if err != nil {
		t.Fatal(err)
	}
	return rows, rep.Render()
}

// TestResumeRepeatsRunSettings stops a ~2,000-experiment campaign
// halfway through the builder `goofi run` uses and abandons its
// database the way a killed process would, resumes it with a flagless
// `goofi resume`, and requires the LoggedSystemState rows and the
// analysis report of an uninterrupted run. Resume must repeat the
// settings run stored: the pre-injection filter redraws the injections
// it rejects, so a resume without it fails the plan-hash check, and a
// run with forwarding off must stay cold after the resume. A row stored
// by an older goofi that named a checkpoint placement must still resume.
func TestResumeRepeatsRunSettings(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name  string
		flags []string
		set   runspec.Settings // what run stores for flags
		ckpt  int
		// legacy, when set, is the Forwarding value the interrupted
		// run stores instead of set.Forwarding.
		legacy string
	}{
		{"pre-injection", []string{"-pre-injection", "-checkpoint", "200"},
			runspec.Settings{PreInjection: true}, 200, ""},
		{"no-forward", []string{"-no-checkpoints", "-target-param", "fastpath=off"},
			runspec.Settings{TargetParams: map[string]string{"fastpath": "off"}, Forwarding: runspec.ForwardOff},
			core.DefaultCheckpointInterval, ""},
		{"legacy-optimal", nil, runspec.Settings{}, core.DefaultCheckpointInterval, "optimal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() string {
				db := dbPath(t)
				for _, step := range [][]string{
					{"configure", "-db", db},
					{"setup", "-db", db, "-campaign", "c", "-workload", "sort16",
						"-window", "10:1600", "-experiments", "2000", "-timeout", "100000"},
				} {
					if err := runCmd(t, step...); err != nil {
						t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
					}
				}
				return db
			}

			full := setup()
			out, err := captureRun(t, append([]string{"run", "-db", full, "-campaign", "c", "-quiet"}, tc.flags...)...)
			if err != nil {
				t.Fatalf("goofi run: %v", err)
			}
			if tc.set.Forwarding == runspec.ForwardOff && strings.Contains(out, "fast-forwarded") {
				t.Errorf("run with forwarding off fast-forwarded:\n%s", out)
			}
			st, sdb, err := openStore(full)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := runspec.Load(st, "c")
			sdb.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stored, tc.set) {
				t.Fatalf("run stored settings %+v, want %+v", stored, tc.set)
			}
			wantRows, wantReport := loggedState(t, full, "c")

			// The interrupted run: stop halfway, then walk away from the
			// open database without compaction or cursor cleanup.
			cut := setup()
			st, sdb, err = openStore(cut)
			if err != nil {
				t.Fatal(err)
			}
			camp, err := st.GetCampaign("c")
			if err != nil {
				t.Fatal(err)
			}
			var (
				r    *runspec.Run
				mu   sync.Mutex
				seen int
			)
			stopHalfway := core.WithProgress(func(ev core.ProgressEvent) {
				if ev.Phase != "experiment" {
					return
				}
				mu.Lock()
				seen++
				stop := seen == n/2
				mu.Unlock()
				if stop {
					r.Runner.Stop()
				}
			})
			cutSet := tc.set
			if tc.legacy != "" {
				cutSet.Forwarding = tc.legacy
			}
			spec := runspec.Spec{Settings: cutSet, Harness: runspec.Harness{Boards: 1, Checkpoint: tc.ckpt}}
			r, err = runspec.Build(st, camp, spec, nil, runspec.Attach{Options: []core.RunnerOption{stopHalfway}})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stored, err := runspec.Load(st, "c"); err != nil || !reflect.DeepEqual(stored, cutSet) {
				t.Fatalf("interrupted run stored settings %+v (%v), want %+v", stored, err, cutSet)
			}
			if err := r.Sink.Close(); err != nil {
				t.Fatal(err)
			}
			sdb.Close()
			if sum.Experiments >= n {
				t.Fatalf("interruption failed: %d experiments ran", sum.Experiments)
			}
			if tc.set.PreInjection && sum.Skipped == 0 {
				t.Fatal("the pre-injection filter skipped nothing; the case proves nothing")
			}

			out, err = captureRun(t, "resume", "-db", cut, "-campaign", "c", "-quiet")
			if err != nil {
				t.Fatalf("goofi resume: %v", err)
			}
			if tc.set.Forwarding == runspec.ForwardOff && strings.Contains(out, "fast-forwarded") {
				t.Errorf("resumed run fast-forwarded under a forwarding-off spec:\n%s", out)
			}
			gotRows, gotReport := loggedState(t, cut, "c")
			if len(gotRows) != len(wantRows) {
				t.Fatalf("resumed campaign logged %d rows, uninterrupted %d", len(gotRows), len(wantRows))
			}
			for i := range gotRows {
				if gotRows[i] != wantRows[i] {
					t.Fatalf("row %d differs\n resumed: %s\n    full: %s", i, gotRows[i], wantRows[i])
				}
			}
			if gotReport != wantReport {
				t.Errorf("analysis report differs\n resumed:\n%s\n full:\n%s", gotReport, wantReport)
			}
		})
	}
}

func TestResumeWithoutStateFails(t *testing.T) {
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "fresh", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatal(err)
		}
	}
	// Positional campaign name, never run: nothing to resume.
	if err := runCmd(t, "resume", "-db", db, "-quiet", "fresh"); err == nil {
		t.Error("resume of a never-started campaign succeeded")
	}
	if err := runCmd(t, "resume", "-db", db, "-quiet"); err == nil {
		t.Error("resume without a campaign name succeeded")
	}
}

func TestSWIFITechniques(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db, "-target", "thor-swifi", "-kind", "swifi", "-image-bytes", "512"},
		{"setup", "-db", db, "-campaign", "sw", "-target", "thor-swifi",
			"-chain", "memory", "-locations", "mem", "-workload", "sort16",
			"-trigger", "cycle", "-trigger-cycle", "0",
			"-experiments", "5", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "sw", "-technique", "swifi-preruntime", "-quiet"},
		{"analyze", "-db", db, "-campaign", "sw"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestSchemaAndWorkloads(t *testing.T) {
	if err := runCmd(t, "schema"); err != nil {
		t.Error(err)
	}
	if err := runCmd(t, "workloads"); err != nil {
		t.Error(err)
	}
	if err := runCmd(t, "help"); err != nil {
		t.Error(err)
	}
}

func TestErrorPaths(t *testing.T) {
	db := dbPath(t)
	cases := [][]string{
		{},
		{"bogus"},
		{"setup", "-db", db}, // missing -campaign
		{"setup", "-db", db, "-campaign", "x", "-workload", "nope"},
		{"run", "-db", db},                      // missing -campaign
		{"run", "-db", db, "-campaign", "none"}, // unknown campaign
		{"analyze", "-db", db},
		{"merge", "-db", db, "-into", "x"}, // too few sources
		{"configure", "-db", db, "-kind", "alien"},
		{"setup", "-db", db, "-campaign", "x", "-window", "nonsense"},
	}
	for _, args := range cases {
		if err := runCmd(t, args...); err == nil {
			t.Errorf("goofi %v succeeded, want error", args)
		}
	}
}

func TestRunUnknownTechnique(t *testing.T) {
	db := dbPath(t)
	if err := runCmd(t, "configure", "-db", db); err != nil {
		t.Fatal(err)
	}
	if err := runCmd(t, "setup", "-db", db, "-campaign", "t", "-workload", "sort16",
		"-window", "10:1600", "-experiments", "1", "-timeout", "100000"); err != nil {
		t.Fatal(err)
	}
	if err := runCmd(t, "run", "-db", db, "-campaign", "t", "-technique", "telepathy"); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestParseWindow(t *testing.T) {
	lo, hi, err := parseWindow("10:200")
	if err != nil || lo != 10 || hi != 200 {
		t.Errorf("parseWindow = %d %d %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "a:b", "1:b", "a:2"} {
		if _, _, err := parseWindow(bad); err == nil {
			t.Errorf("parseWindow(%q) accepted", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Error("splitList(\"\") != nil")
	}
}

// TestRunWithChaosAndRetries: the chaos flags make the harness flaky and
// the retry flags absorb it — the campaign must complete and analyze
// with no invalid runs.
func TestRunWithChaosAndRetries(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "flaky", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "6", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "flaky", "-quiet",
			"-chaos-scan-read", "0.4", "-chaos-max-faults", "4", "-chaos-seed", "11",
			"-max-retries", "6"},
		{"analyze", "-db", db, "-campaign", "flaky"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	st, sdb, err := openStore(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	recs, err := st.Experiments("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 { // reference + 6
		t.Fatalf("store holds %d records, want 7", len(recs))
	}
	for _, rec := range recs {
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			t.Errorf("%s is invalid despite retries", rec.Name)
		}
	}
}

// TestResumeRetryInvalid: a campaign run against an unrecoverable chaos
// harness records every experiment as an invalid run; goofi resume
// -retry-invalid against a healthy harness re-attempts exactly those and
// completes them.
func TestResumeRetryInvalid(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "sick", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "4", "-timeout", "100000"},
		// Every DR write exchange fails. The reference run never writes
		// the scan chain, so it completes; every injected experiment
		// burns its one retry and is recorded invalid.
		{"run", "-db", db, "-campaign", "sick", "-quiet",
			"-chaos-scan-write", "1", "-max-retries", "1"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	st, sdb, err := openStore(db)
	if err != nil {
		t.Fatal(err)
	}
	invalid := 0
	recs, err := st.Experiments("sick")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			invalid++
		}
	}
	sdb.Close()
	if invalid != 4 {
		t.Fatalf("%d invalid runs recorded, want 4", invalid)
	}

	// A plain resume has nothing to do: invalid slots are final.
	if err := runCmd(t, "resume", "-db", db, "-campaign", "sick", "-quiet"); err != nil {
		t.Fatalf("plain resume: %v", err)
	}

	// Opting in re-attempts them against the now-healthy harness.
	if err := runCmd(t, "resume", "-db", db, "-campaign", "sick", "-quiet",
		"-retry-invalid", "-max-retries", "2"); err != nil {
		t.Fatalf("resume -retry-invalid: %v", err)
	}
	st, sdb, err = openStore(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	recs, err = st.Experiments("sick")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // reference + 4
		t.Fatalf("store holds %d records after retry, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			t.Errorf("%s still invalid after -retry-invalid", rec.Name)
		}
	}
}
