package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. detail says what it summarises, for
// the human-readable lines.
type metric struct {
	name, unit string
	value      float64
	detail     string
}

// collector gathers metrics in report order.
type collector struct{ ms []metric }

func (c *collector) add(name, unit string, v float64, detail string) {
	c.ms = append(c.ms, metric{name: name, unit: unit, value: v, detail: detail})
}

// note appends to the detail of the metric added last.
func (c *collector) note(s string) { c.ms[len(c.ms)-1].detail += s }

// timing adds a timing metric as its median, with the tail percentile
// and sample count in the detail.
func (c *collector) timing(name, unit string, xs []float64) {
	t := summarise(xs, unit)
	c.add(name, unit, t.median, t.String())
}

func (t timing) String() string {
	if t.n == 0 {
		return "no samples: the workload does not reach this layer"
	}
	s := fmt.Sprintf("median of n=%d", t.n)
	if t.hasTail {
		s += fmt.Sprintf(", p%s=%.6g %s", permilleName(t.tailPm), t.tail, t.unitSuffix)
	}
	return s
}

func permilleName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprint(pm / 10)
	}
	return fmt.Sprintf("%.1f", float64(pm)/10)
}

// perCampaign maps each campaign to one value.
func perCampaign(runs []*result, f func(*result) float64) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, f(r))
	}
	return out
}

// campaignMean adds an end-to-end metric from one value per campaign:
// their trimmed mean, with the median, tail percentile and count in the
// detail. On a shared host the campaigns of a run fall into a fast and a
// slow cluster as other tenants come and go. Their median sits between
// the clusters and jumps from one to the other as the share of slow
// campaigns crosses one half; the trimmed mean moves in proportion to
// that share and still ignores the odd stalled campaign.
func campaignMean(c *collector, name, unit string, xs []float64) {
	t := summarise(xs, unit)
	detail := fmt.Sprintf("%.0f%%-trimmed mean of n=%d campaigns; median %.6g %s", 100*trimFrac, t.n, t.median, unit)
	if t.hasTail {
		detail += fmt.Sprintf(", p%s=%.6g %s", permilleName(t.tailPm), t.tail, unit)
	}
	c.add(name, unit, trimmedMean(xs, trimFrac), detail)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the user-visible metrics from untraced campaigns.
func endToEnd(runs []*result, maxRSS float64) []metric {
	var c collector
	campaignMean(&c, "setup_s", "s", perCampaign(runs, func(r *result) float64 { return seconds(r.setup) }))
	campaignMean(&c, "exp_per_s", "exp/s", perCampaign(runs, func(r *result) float64 {
		return float64(r.experiments) / seconds(r.fi)
	}))
	// Latency percentiles are taken per campaign, over its own
	// experiments, and then summarised over campaigns like the other
	// timings.
	var n int
	p50 := make([]float64, 0, len(runs))
	p99 := make([]float64, 0, len(runs))
	for _, r := range runs {
		lat := sortedCopy(durations(r.rec.latencies, time.Millisecond))
		n += len(lat)
		p50 = append(p50, percentile(lat, 500))
		p99 = append(p99, percentile(lat, 990))
	}
	samples := fmt.Sprintf("; %d experiments sampled", n)
	campaignMean(&c, "exp_latency_p50_ms", "ms", p50)
	c.note(samples)
	campaignMean(&c, "exp_latency_p99_ms", "ms", p99)
	c.note(samples)
	campaignMean(&c, "analysis_s", "s", perCampaign(runs, func(r *result) float64 { return seconds(r.analysis) }))
	campaignMean(&c, "time_to_report_s", "s", perCampaign(runs, func(r *result) float64 {
		return seconds(r.setup + r.fi + r.analysis)
	}))
	// Bytes per experiment depend on the plan's outcome mix, not on
	// timing: the mean over all the run's plans is the steadier figure.
	var bytes, exps int64
	for _, r := range runs {
		bytes += r.dbBytes
		exps += int64(r.experiments)
	}
	c.add("db_bytes_per_exp", "B", float64(bytes)/float64(exps),
		fmt.Sprintf("%d bytes over %d experiments in %d campaigns", bytes, exps, len(runs)))
	c.add("max_rss_mb", "MiB", maxRSS, "peak resident set of the benchmark process")
	return c.ms
}

// perLayer computes the per-layer metrics: layer timings from traced
// campaigns, runtime and error figures from the untraced ones, and the
// tracing overhead from both.
func perLayer(w spec, traced, untraced []*result) []metric {
	var c collector
	pooled := func(name string, unit time.Duration) []float64 {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, durations(r.rec.samples[name], unit)...)
		}
		return xs
	}
	step := func(name string) {
		var xs []float64
		for _, r := range traced {
			if d, ok := r.steps[name]; ok {
				xs = append(xs, millis(d))
			}
		}
		c.timing(name, "ms", xs)
	}
	for _, layer := range []string{"scifi", "proctarget"} {
		for _, m := range methodMetric {
			if layer == "proctarget" && !procMethods[m] {
				continue
			}
			c.timing(layer+"."+m, "us", pooled(layer+"."+m, time.Microsecond))
		}
	}

	// Simulator counters come from the runner's Summary, exact counts
	// that repeat for a seed; sharded campaigns have no local Summary.
	var cycles, saved, forwarded, exps float64
	var emuBusy time.Duration
	for _, r := range traced {
		if r.sum == nil || w.layer != "scifi" {
			continue
		}
		cycles += float64(r.sum.CyclesEmulated)
		saved += float64(r.sum.CyclesSaved)
		forwarded += float64(r.sum.Forwarded)
		exps += float64(r.sum.Experiments)
		for _, m := range []string{"scifi.wait_for_breakpoint_us", "scifi.wait_for_termination_us"} {
			for _, d := range r.rec.samples[m] {
				emuBusy += d
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c.add("thor.mcycles_per_s", "Mcycle/s", ratio(cycles/1e6, emuBusy.Seconds()),
		"emulated cycles over thor run-to-breakpoint and run-to-termination time")
	c.add("thor.cycles_emulated_per_exp", "cycles", ratio(cycles, exps), "exact, from core.Summary")
	c.add("thor.cycles_saved_per_exp", "cycles", ratio(saved, exps), "exact, from core.Summary")
	c.add("core.forwarded_frac", "ratio", ratio(forwarded, exps), "exact, from core.Summary")

	residuals := perCampaign(traced, func(r *result) float64 { return r.residual })
	res := median(residuals)
	flag := "within"
	if res > residualFlagAbove {
		flag = "FLAGGED: above"
	}
	c.add("core.residual_frac", "ratio", res,
		fmt.Sprintf("median of %d campaigns; %s %.2f", len(residuals), flag, residualFlagAbove))
	step("core.new_runner_ms")
	step("core.reference_ms")

	c.timing("campaign.save_checkpoint_ms", "ms", pooled("campaign.save_checkpoint_ms", time.Millisecond))
	c.add("campaign.save_checkpoint_calls", "count", median(perCampaign(traced, func(r *result) float64 {
		return float64(len(r.rec.samples["campaign.save_checkpoint_ms"]))
	})), "per campaign")
	c.timing("campaign.sink_log_us", "us", pooled("campaign.sink_log_us", time.Microsecond))
	for _, name := range []string{"campaign.sink_close_ms", "campaign.experiments_decode_ms",
		"campaign.put_target_system_ms", "campaign.put_campaign_ms", "campaign.get_target_system_ms",
		"sqldb.checkpoint_ms", "sqldb.open_ms", "analysis.new_ms", "analysis.run_ms",
		"analysis.write_results_ms"} {
		step(name)
	}

	c.add("runtime.alloc_bytes_per_exp", "B", median(perCampaign(untraced, func(r *result) float64 {
		return float64(r.allocBytes) / float64(r.experiments)
	})), "untraced campaigns")
	c.add("runtime.gc_cpu_frac", "ratio", median(perCampaign(untraced, func(r *result) float64 {
		return ratio(r.gcCPU, r.cpu)
	})), "GC share of available CPU, untraced campaigns")

	for _, call := range []string{"hello", "lease", "report", "heartbeat"} {
		xs := sortedCopy(pooled("shard."+call+"_ms", time.Millisecond))
		c.add("shard."+call+"_ms.p50", "ms", percentile(xs, 500), fmt.Sprintf("n=%d", len(xs)))
		c.add("shard."+call+"_ms.p99", "ms", percentile(xs, 990), fmt.Sprintf("n=%d", len(xs)))
		c.add("shard."+call+"_calls", "count", ratio(float64(len(xs)), float64(len(traced))), "per campaign")
	}
	var transportErrs, attempted, failed int64
	for _, r := range append(append([]*result(nil), traced...), untraced...) {
		transportErrs += r.rec.callErrors
		attempted += r.attempted
		failed += r.failed
	}
	c.add("shard.transport_errors", "count", float64(transportErrs), "all campaigns")
	c.add("shard.idle_s", "s", median(perCampaign(traced, func(r *result) float64 {
		var idle time.Duration
		for _, d := range r.rec.samples["shard.idle_s"] {
			idle += d
		}
		return idle.Seconds()
	})), "per campaign, summed over workers")
	for _, name := range []string{"server.submit_ms", "server.first_lease_ms", "server.results_ms"} {
		step(name)
	}

	overhead := median(perCampaign(traced, func(r *result) float64 { return seconds(r.fi) }))/
		median(perCampaign(untraced, func(r *result) float64 { return seconds(r.fi) })) - 1
	c.add("trace.overhead_frac", "ratio", overhead, "median traced over median untraced fault-injection wall time, minus 1")
	c.add("error_rate", "ratio", errorRate(attempted, failed),
		fmt.Sprintf("%d failed of %d attempted operations", failed, attempted))
	return c.ms
}

// procMethods are the target methods the proc layer reports: the
// runtime SWIFI algorithm's fork/exec, step window, injection and wait.
var procMethods = map[string]bool{
	"run_workload_us": true, "wait_for_breakpoint_us": true, "inject_fault_us": true,
	"wait_for_termination_us": true, "init_test_card_us": true, "read_memory_us": true,
}

// budget renders each layer's summed busy time over the traced
// campaigns as a share of their board time (boards × fault-injection
// wall). Set-up calls such as the reference run's are included, so the
// shares are a breakdown, not the residual's layer sum.
func budget(runs []*result) string {
	busy := make(map[string]time.Duration)
	var board time.Duration
	for _, r := range runs {
		board += time.Duration(r.boards) * r.fi
		for name, ds := range r.rec.samples {
			for _, d := range ds {
				busy[name] += d
			}
		}
		for _, name := range []string{"campaign.sink_close_ms", "sqldb.checkpoint_ms"} {
			busy[name] += r.steps[name]
		}
	}
	names := make([]string, 0, len(busy))
	for n := range busy {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return busy[names[i]] > busy[names[j]] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "# layer busy time, all traced campaigns (board time %.3f s; includes set-up calls):\n", board.Seconds())
	for _, n := range names {
		fmt.Fprintf(&sb, "#   %-34s %10.3f ms  %5.1f%%\n", n, millis(busy[n]), 100*float64(busy[n])/float64(board))
	}
	return sb.String()
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
