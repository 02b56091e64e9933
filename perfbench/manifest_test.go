package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"goofi/internal/core"
)

// syntheticResult is a campaign result with a sample in every layer.
func syntheticResult(traced bool) *result {
	rec := newRecorder(traced)
	for _, layer := range []string{"scifi", "proctarget"} {
		for _, m := range methodMetric {
			rec.samples[layer+"."+m] = []time.Duration{time.Microsecond}
		}
	}
	for _, name := range []string{"campaign.save_checkpoint_ms", "campaign.sink_log_us",
		"shard.hello_ms", "shard.lease_ms", "shard.report_ms", "shard.heartbeat_ms", "shard.idle_s"} {
		rec.samples[name] = []time.Duration{time.Millisecond}
	}
	rec.latencies = []time.Duration{time.Millisecond, 2 * time.Millisecond}
	steps := make(map[string]time.Duration)
	for _, name := range []string{"core.new_runner_ms", "core.reference_ms", "campaign.sink_close_ms",
		"campaign.experiments_decode_ms", "campaign.put_target_system_ms", "campaign.put_campaign_ms",
		"campaign.get_target_system_ms", "sqldb.checkpoint_ms", "sqldb.open_ms", "analysis.new_ms",
		"analysis.run_ms", "analysis.write_results_ms", "server.submit_ms", "server.first_lease_ms",
		"server.results_ms"} {
		steps[name] = time.Millisecond
	}
	return &result{
		traced: traced, boards: 1, experiments: 10,
		setup: time.Second, fi: 2 * time.Second, analysis: time.Second,
		dbBytes: 1000, steps: steps, rec: rec,
		sum:        &core.Summary{Experiments: 10, CyclesEmulated: 1000, CyclesSaved: 500, Forwarded: 10},
		allocBytes: 1 << 20, gcCPU: 0.1, cpu: 1, residual: 0.05, busy: 2 * time.Second,
		attempted: 10,
	}
}

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchManifest: every metric the benchmark prints is
// named in BENCHMARK.json with the same unit, and every manifest metric
// is printed, for every workload.
func TestMetricNamesMatchManifest(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*result{syntheticResult(false)}
	traced := []*result{syntheticResult(true)}
	if _, err := resultJSON(endToEnd(runs, 50), man.EndToEnd, runs); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	for _, w := range workloads {
		if _, err := resultJSON(perLayer(w, traced, runs), man.PerLayer, traced); err != nil {
			t.Errorf("%s per-layer: %v", w.name, err)
		}
	}
}

// TestManifestShape checks BENCHMARK.json against the limits the
// benchmark contract sets, and its workloads against the ones built here.
func TestManifestShape(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest names %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		check(w.Name, "", "")
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in the manifest, %q here", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit, l.Better)
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}
