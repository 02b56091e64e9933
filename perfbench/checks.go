package main

import (
	"fmt"
	"runtime/metrics"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
)

// checkCampaign verifies one finished campaign: every planned experiment
// ran, none failed, the analysis classes partition the experiments, and
// the analysis agrees with the runner's own outcome counts. The report is
// not kept in the result: its per-experiment details would pile up over
// the campaigns of a run and inflate max_rss_mb with the campaign count.
func checkCampaign(res *result, rep *analysis.Report, camp *campaign.Campaign) error {
	if res.experiments != camp.NumExperiments {
		return fmt.Errorf("%s: %d experiments ran, want %d", camp.Name, res.experiments, camp.NumExperiments)
	}
	if res.failed != 0 {
		return fmt.Errorf("%s: %d failed experiment attempts", camp.Name, res.failed)
	}
	if err := checkClasses(rep, res.experiments); err != nil {
		return fmt.Errorf("%s: %w", camp.Name, err)
	}
	if res.sum != nil {
		if err := checkAgainstSummary(rep, res.sum); err != nil {
			return fmt.Errorf("%s: %w", camp.Name, err)
		}
	}
	return nil
}

// checkClasses: detected + escaped + latent + overwritten + invalid runs
// + not-injected = experiments. The not-injected class holds experiments
// whose injection point lay beyond the end of the run.
func checkClasses(rep *analysis.Report, experiments int) error {
	n := 0
	for _, c := range analysis.AllClasses() {
		n += rep.Counts[c]
	}
	if n != experiments || rep.Total != experiments {
		return fmt.Errorf("analysis classes sum to %d over %d records, want %d", n, rep.Total, experiments)
	}
	return nil
}

// checkAgainstSummary compares the analysis report with the runner's
// Summary.ByStatus: invalid runs, detections (a proc crash is detected
// by the OS trap) and the process outcome classes must agree exactly.
func checkAgainstSummary(rep *analysis.Report, sum *core.Summary) error {
	by := sum.ByStatus
	if rep.Injected != sum.Injected {
		return fmt.Errorf("analysis counts %d injected, runner %d", rep.Injected, sum.Injected)
	}
	if got, want := rep.Counts[analysis.ClassInvalidRun], by[campaign.OutcomeInvalidRun]; got != want {
		return fmt.Errorf("analysis counts %d invalid runs, runner %d", got, want)
	}
	if got, want := rep.Counts[analysis.ClassDetected], by[campaign.OutcomeDetected]+by[campaign.OutcomeCrash]; got != want {
		return fmt.Errorf("analysis counts %d detected, runner %d", got, want)
	}
	for _, s := range []campaign.OutcomeStatus{campaign.OutcomeMasked, campaign.OutcomeSDC,
		campaign.OutcomeCrash, campaign.OutcomeHang} {
		if rep.OutcomeClasses[s] != by[s] {
			return fmt.Errorf("analysis counts %d %s outcomes, runner %d", rep.OutcomeClasses[s], s, by[s])
		}
	}
	if len(rep.OutcomeClasses) > 0 {
		n := 0
		for _, k := range rep.OutcomeClasses {
			n += k
		}
		if n+rep.Counts[analysis.ClassNotInjected] != sum.Experiments {
			return fmt.Errorf("process outcome classes sum to %d plus %d not injected, want %d",
				n, rep.Counts[analysis.ClassNotInjected], sum.Experiments)
		}
	}
	return nil
}

// checkRuns compares the campaigns of one benchmark run that share a
// seed: for targets with byte-identical outcomes every record digest,
// report and simulated counter must match, traced or not; for the
// others the fault plan must.
func checkRuns(w spec, runs []*result) error {
	first := make(map[int64]*result)
	for i, r := range runs {
		f, ok := first[r.seed]
		if !ok {
			first[r.seed] = r
			continue
		}
		if w.deterministic {
			if r.digest != f.digest {
				return fmt.Errorf("seed %d: campaign %d (traced=%v) logged digest %.16s, an earlier one (traced=%v) %.16s",
					r.seed, i, r.traced, r.digest, f.traced, f.digest)
			}
			if r.report != f.report {
				return fmt.Errorf("seed %d: campaign %d rendered a different report", r.seed, i)
			}
		}
		if f.sum == nil {
			continue
		}
		if err := sameCounters(f.sum, r.sum, w.deterministic); err != nil {
			return fmt.Errorf("seed %d: campaign %d (traced=%v): %w", r.seed, i, r.traced, err)
		}
	}
	return nil
}

// sameCounters compares two summaries of one plan. The plan hash must
// always match; deterministic targets must also match every simulated
// statistic.
func sameCounters(a, b *core.Summary, deterministic bool) error {
	if a.PlanHash == "" || a.PlanHash != b.PlanHash {
		return fmt.Errorf("plan hash %.12s vs %.12s", a.PlanHash, b.PlanHash)
	}
	if a.Deterministic != b.Deterministic || a.Deterministic != deterministic {
		return fmt.Errorf("target declared deterministic=%v/%v, want %v", a.Deterministic, b.Deterministic, deterministic)
	}
	if !deterministic {
		return nil
	}
	if a.CyclesEmulated != b.CyclesEmulated || a.CyclesSaved != b.CyclesSaved ||
		a.Forwarded != b.Forwarded || a.ForwardDeltaCycles != b.ForwardDeltaCycles {
		return fmt.Errorf("simulated counters differ: emulated %d/%d, saved %d/%d, forwarded %d/%d",
			a.CyclesEmulated, b.CyclesEmulated, a.CyclesSaved, b.CyclesSaved, a.Forwarded, b.Forwarded)
	}
	return nil
}

// cpuSample is a point reading of the Go runtime's allocation and CPU
// accounting.
type cpuSample struct {
	alloc     uint64
	gc, total float64
}

func sampleCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := cpuSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.total = s[2].Value.Float64()
	}
	return out
}
