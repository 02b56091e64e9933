// Command perfbench is GOOFI's campaign benchmark. It runs one named
// workload for a fixed time, checks that every campaign's outputs are
// correct, and prints every metric by name with its unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured on untraced campaigns; with --trace 1 they are its per-layer
// metrics, from traced campaigns alternating with untraced ones. Run it
// from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sort16-wal --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minCampaigns is the fewest campaigns of each kind a run measures,
// whatever its time budget.
const minCampaigns = 3

// seedsPerRun is how many fault plans a run cycles through. The run's
// seed derives them, so a run averages over several plans, not one
// plan's particular mix of outcomes. It is odd so that, with traced
// and untraced campaigns alternating, each plan runs both ways.
const seedsPerRun = 15

// campaignSeed is the campaign seed of the i-th campaign of a run.
func campaignSeed(runSeed int64, i int) int64 {
	return runSeed*seedsPerRun + int64(i%seedsPerRun)
}

// Paths relative to the repository root, where the benchmark runs.
const (
	manifestPath = "BENCHMARK.json"
	// buildDir holds what run.sh builds and the campaign databases.
	buildDir   = ".bench_build"
	victimPath = buildDir + "/victims/matmul"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: pid-long, sort16-wal, sort16-sharded, proc-matmul")
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from traced campaigns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bench(o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func bench(o options, stdout io.Writer) error {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	env := &benchEnv{}
	if env.victim, err = filepath.Abs(victimPath); err != nil {
		return err
	}
	if w.layer == "proctarget" {
		if _, err := os.Stat(env.victim); err != nil {
			return fmt.Errorf("proc victim: %w", err)
		}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if env.work, err = os.MkdirTemp(buildDir, "perfbench-"); err != nil {
		return err
	}
	defer os.RemoveAll(env.work)

	traced := o.trace == 1
	one := func(seed int64, tr bool, boards int) (*result, error) {
		if w.sharded {
			return env.runSharded(w, seed, tr)
		}
		return env.runSolo(w, seed, tr, boards)
	}
	// One unmeasured campaign first lets the heap, the page cache and
	// lazily built state settle; its records still go through the checks.
	warm, err := one(campaignSeed(o.seed, 0), false, w.boards)
	if err != nil {
		return err
	}
	var untracedRuns, tracedRuns, all []*result
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		r, err := one(campaignSeed(o.seed, i), tr, w.boards)
		if err != nil {
			return err
		}
		all = append(all, r)
		if tr {
			tracedRuns = append(tracedRuns, r)
		} else {
			untracedRuns = append(untracedRuns, r)
		}
		enough := len(untracedRuns) >= minCampaigns && (!traced || len(tracedRuns) >= minCampaigns)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	maxRSS := peakRSS()

	// Cross-campaign checks, outside the measured loop.
	if err := checkRuns(w, append([]*result{warm}, all...)); err != nil {
		return err
	}
	if w.checkBoards > 0 {
		r, err := one(warm.seed, false, w.checkBoards)
		if err != nil {
			return err
		}
		if r.digest != warm.digest {
			return fmt.Errorf("boards=%d logged digest %.16s, boards=%d %.16s",
				w.checkBoards, r.digest, w.boards, warm.digest)
		}
	}
	if w.sharded {
		solo, _ := lookupWorkload("sort16-wal")
		r, err := env.runSolo(solo, warm.seed, false, solo.boards)
		if err != nil {
			return err
		}
		if r.report != warm.report {
			return fmt.Errorf("sharded report differs from the solo report:\n%s\nvs\n%s", warm.report, r.report)
		}
		if r.digest != warm.digest {
			return fmt.Errorf("sharded merge logged digest %.16s, solo %.16s", warm.digest, r.digest)
		}
	}

	var ms []metric
	want := man.EndToEnd
	if traced {
		ms = perLayer(w, tracedRuns, untracedRuns)
		want = man.PerLayer
	} else {
		ms = endToEnd(untracedRuns, maxRSS)
	}
	out, err := resultJSON(ms, want, all)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d traced=%v seconds=%d\n", w.name, o.seed, traced, o.seconds)
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s commit=%s boards=%d campaigns=%d untraced=%d traced=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), w.boards,
		len(all), len(untracedRuns), len(tracedRuns))
	fmt.Fprintf(stdout, "# campaign seeds %d..%d; checks passed: first record digest %.16s, plan %.16s\n",
		campaignSeed(o.seed, 0), campaignSeed(o.seed, seedsPerRun-1), warm.digest, planHash(warm))
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-34s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.detail)
	}
	if traced {
		fmt.Fprint(stdout, budget(tracedRuns))
	}
	fmt.Fprintln(stdout, out)
	return nil
}

func planHash(r *result) string {
	if r.sum == nil {
		return "-"
	}
	return r.sum.PlanHash
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parse manifest %s: %w", path, err)
	}
	return &m, nil
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// resultJSON renders the result line, with exactly the manifest's
// metrics in the manifest's units.
func resultJSON(ms []metric, want []manifestMetric, runs []*result) (string, error) {
	got := make(map[string]metric, len(ms))
	for _, m := range ms {
		got[m.name] = m
	}
	res := jsonResult{Correct: true, Metrics: make(map[string]jsonValue, len(want))}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is in the manifest but not measured", w.Name)
		}
		if m.unit != w.Unit {
			return "", fmt.Errorf("metric %s is measured in %s, the manifest says %s", w.Name, m.unit, w.Unit)
		}
		res.Metrics[w.Name] = jsonValue{Value: finite(m.value), Unit: m.unit}
		delete(got, w.Name)
	}
	if len(got) > 0 {
		var extra []string
		for n := range got {
			extra = append(extra, n)
		}
		return "", fmt.Errorf("metrics measured but not in the manifest: %s", strings.Join(extra, ", "))
	}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit names the commit checked out in the working directory, read
// from .git without running git, or "unknown" when there is none.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
