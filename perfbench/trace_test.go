package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"goofi/internal/core"
	"goofi/internal/proctarget"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

func TestWrapTargetKeepsCapabilities(t *testing.T) {
	rec := newRecorder(true)
	sc := wrapTarget(scifi.New(thor.DefaultConfig()), rec, "scifi")
	if _, ok := sc.(core.Forwarder); !ok {
		t.Error("wrapped scifi target lost core.Forwarder: traced runs would run cold")
	}
	if _, ok := sc.(core.ForwardCalibrator); !ok {
		t.Error("wrapped scifi target lost core.ForwardCalibrator")
	}
	if !core.TargetDeterministic(sc) {
		t.Error("wrapped scifi target is not deterministic")
	}
	if _, ok := sc.(core.NondeterministicTarget); !ok {
		t.Error("wrapped scifi target lost its declared core.NondeterministicTarget capability")
	}

	pt, err := proctarget.New(core.TargetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wp := wrapTarget(pt, rec, "proctarget")
	if core.TargetDeterministic(wp) {
		t.Error("wrapped proc target claims determinism")
	}
	if _, ok := wp.(core.Forwarder); ok {
		t.Error("wrapped proc target gained core.Forwarder")
	}

	bare := wrapTarget(&core.Framework{TargetName: "bare"}, rec, "scifi")
	if _, ok := bare.(core.Forwarder); ok {
		t.Error("wrapped framework gained core.Forwarder")
	}
	if _, ok := bare.(core.NondeterministicTarget); ok {
		t.Error("wrapped framework gained core.NondeterministicTarget")
	}
}

// TestTracedMatchesUntraced: tracing changes no logged byte and no
// simulated statistic on either thor workload.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	for _, name := range []string{"pid-long", "sort16-wal"} {
		t.Run(name, func(t *testing.T) {
			w, _ := lookupWorkload(name)
			env := &benchEnv{work: t.TempDir()}
			plain, err := env.runSolo(w, 7, false, w.boards)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := env.runSolo(w, 7, true, w.boards)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest {
				t.Fatalf("record digests differ: untraced %s, traced %s", plain.digest, traced.digest)
			}
			if err := sameCounters(plain.sum, traced.sum, true); err != nil {
				t.Fatal(err)
			}
			if traced.sum.Forwarded == 0 || traced.sum.CyclesSaved == 0 {
				t.Fatalf("traced run did not forward: %+v", traced.sum)
			}
			if len(traced.rec.samples["scifi.wait_for_termination_us"]) == 0 {
				t.Fatal("traced run recorded no target spans")
			}
			if len(plain.rec.samples) != 0 {
				t.Fatalf("untraced run recorded spans: %v", len(plain.rec.samples))
			}
		})
	}
}

// TestProcTracedStaysNondeterministic: a traced proc campaign keeps the
// target's declared non-determinism and its seed-stable plan.
func TestProcTracedStaysNondeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and traces a victim process")
	}
	dir := t.TempDir()
	victim := filepath.Join(dir, "matmul")
	build := exec.Command("go", "build", "-o", victim, "./examples/victims/matmul")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build victim: %v\n%s", err, out)
	}
	if err := proctarget.Probe(victim); err != nil {
		t.Skipf("ptrace unavailable: %v", err)
	}
	w, _ := lookupWorkload("proc-matmul")
	env := &benchEnv{work: dir, victim: victim}
	a, err := env.runSolo(w, 3, true, w.boards)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.runSolo(w, 3, false, w.boards)
	if err != nil {
		t.Fatal(err)
	}
	if a.sum.Deterministic {
		t.Fatal("traced proc run reports Deterministic == true")
	}
	if err := sameCounters(a.sum, b.sum, false); err != nil {
		t.Fatal(err)
	}
}
