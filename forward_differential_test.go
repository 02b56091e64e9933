package goofi_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// runDifferential executes camp on a fresh store with the given board
// count and forwarding setting, returning the summary, the analysis
// report, and the JSON-marshalled experiment records in sequence order.
func runDifferential(t *testing.T, camp *campaign.Campaign, boards int,
	forwarding bool) (*core.Summary, *analysis.Report, []string) {
	t.Helper()
	st, tsd := benchStore(t)
	var opts []core.RunnerOption
	if boards > 1 {
		opts = append(opts, core.WithBoards(boards, func() core.TargetSystem {
			return scifi.New(thor.DefaultConfig())
		}))
	}
	if !forwarding {
		opts = append(opts, core.WithForwarding(core.ForwardConfig{Disabled: true}))
	}
	sum, rep := runCampaign(t, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp, opts...)
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	return sum, rep, rows
}

// TestForwardingDifferential is the acceptance gate for checkpoint
// forwarding: across board counts, persistent and transient fault
// models, and workloads with and without an environment simulator, a
// forwarded campaign logs exactly the same records and analysis report
// as a cold one — while emulating measurably fewer cycles.
func TestForwardingDifferential(t *testing.T) {
	cases := []struct {
		name string
		camp func(name string) *campaign.Campaign
	}{
		{"pid-envsim-transient", func(name string) *campaign.Campaign {
			// PID with the first-order plant: exercises the environment-
			// simulator snapshot path on restore.
			c := pidCampaign(name, 12, 17)
			c.RandomWindow = [2]uint64{200, 4000}
			return c
		}},
		{"sort-stuckat1-persistent", func(name string) *campaign.Campaign {
			// Sort without a simulator, persistent stuck-at faults:
			// exercises reassertion after a forwarded restore.
			c := sortCampaign(name, 12, 23, []string{"cpu"})
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
			return c
		}},
	}
	for _, tc := range cases {
		for _, boards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/boards=%d", tc.name, boards), func(t *testing.T) {
				name := fmt.Sprintf("diff-%s-b%d", tc.name, boards)
				coldSum, coldRep, coldRecs := runDifferential(t, tc.camp(name), boards, false)
				warmSum, warmRep, warmRecs := runDifferential(t, tc.camp(name), boards, true)

				if coldSum.Forwarded != 0 || coldSum.CyclesSaved != 0 {
					t.Errorf("cold run reports forwarding: %d forwarded, %d saved",
						coldSum.Forwarded, coldSum.CyclesSaved)
				}
				if warmSum.Forwarded == 0 {
					t.Error("warm run forwarded no experiments")
				}
				if warmSum.CyclesSaved == 0 {
					t.Error("warm run saved no cycles")
				}
				if warmSum.CyclesEmulated >= coldSum.CyclesEmulated {
					t.Errorf("warm run emulated %d cycles, cold %d — no reduction",
						warmSum.CyclesEmulated, coldSum.CyclesEmulated)
				}

				if len(coldRecs) != len(warmRecs) {
					t.Fatalf("record counts differ: cold %d, warm %d", len(coldRecs), len(warmRecs))
				}
				for i := range coldRecs {
					if coldRecs[i] != warmRecs[i] {
						t.Errorf("record %d differs\ncold %s\nwarm %s", i, coldRecs[i], warmRecs[i])
					}
				}
				if !reflect.DeepEqual(coldRep, warmRep) {
					t.Errorf("analysis reports differ\ncold %+v\nwarm %+v", coldRep, warmRep)
				}
				t.Logf("forwarded %d/%d, cycles emulated %d (cold %d), saved %d",
					warmSum.Forwarded, len(warmRecs)-1,
					warmSum.CyclesEmulated, coldSum.CyclesEmulated, warmSum.CyclesSaved)
			})
		}
	}
}

// runPlacement executes camp with the given checkpoint placement
// strategy (deterministic snapshot pricing) and returns the summary and
// experiment records.
func runPlacement(t *testing.T, camp *campaign.Campaign, placement string, maxCheckpoints int) (*core.Summary, []string) {
	t.Helper()
	st, tsd := benchStore(t)
	sum, _ := runCampaign(t, st, tsd, scifi.New(thor.DefaultConfig()), core.SCIFI, camp,
		core.WithForwarding(core.ForwardConfig{
			Placement:          placement,
			MaxCheckpoints:     maxCheckpoints,
			SnapshotCostCycles: core.DefaultSnapshotCostCycles,
		}))
	recs, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	return sum, rows
}

// TestPlacementDifferential is the acceptance gate for the optimal
// checkpoint planner: against interval placement on the same windowed
// campaign, it must log byte-identical records (placement decides only
// *where* checkpoints go, never what is observed) while emulating no
// more cycles, and the summary must report the strategy plus its
// predicted and achieved re-emulation deltas. An explicit snapshot cost
// keeps every cycle count deterministic across hosts, which is what
// lets CI gate on it.
func TestPlacementDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		seed int64
		// window overrides pidCampaign's 200–8000 when set.
		window [2]uint64
		// maxCheckpoints 0 keeps the planner's default budget.
		maxCheckpoints int
		// deltas checks the predicted and achieved re-emulation.
		deltas bool
	}{
		// A binding checkpoint budget is the regime placement matters
		// in: with checkpoints to spare, interval spacing already puts
		// one near every injection point.
		{name: "binding-budget", n: 14, seed: 29, window: [2]uint64{200, 4000}, maxCheckpoints: 8, deltas: true},
		// The E1 campaign at the default budget, 40 experiments, seed 1:
		// the CI bench-smoke gate. Its achieved re-emulation runs far
		// above the planner's prediction under both placements (about
		// 35k against 2k–4k cycles), so the overshoot bound is not
		// checked; the emulated-cycle gate is.
		{name: "e1-default-budget", n: 40, seed: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(name string) *campaign.Campaign {
				c := pidCampaign(name, tc.n, tc.seed)
				if tc.window != [2]uint64{} {
					c.RandomWindow = tc.window
				}
				return c
			}
			intSum, intRecs := runPlacement(t, mk("placement-int"), core.PlacementInterval, tc.maxCheckpoints)
			optSum, optRecs := runPlacement(t, mk("placement-opt"), core.PlacementOptimal, tc.maxCheckpoints)

			if intSum.ForwardPlacement != core.PlacementInterval {
				t.Errorf("interval summary reports placement %q", intSum.ForwardPlacement)
			}
			if optSum.ForwardPlacement != core.PlacementOptimal {
				t.Errorf("optimal summary reports placement %q", optSum.ForwardPlacement)
			}
			if intSum.CyclesEmulated == 0 || optSum.CyclesEmulated == 0 {
				t.Errorf("no emulated cycles counted: interval %d, optimal %d",
					intSum.CyclesEmulated, optSum.CyclesEmulated)
			}
			if optSum.CyclesEmulated > intSum.CyclesEmulated {
				t.Errorf("optimal placement emulated %d cycles, interval %d — planner regressed",
					optSum.CyclesEmulated, intSum.CyclesEmulated)
			}
			if optSum.ForwardPredictedDelta == 0 || optSum.ForwardDeltaCycles == 0 {
				t.Errorf("optimal summary missing deltas: predicted %d, achieved %d",
					optSum.ForwardPredictedDelta, optSum.ForwardDeltaCycles)
			}
			// Achieved re-emulation can only exceed the prediction by
			// capture overshoot (at most one instruction per checkpoint)
			// plus the byte budget cutting recording short — neither
			// applies on this small campaign, so achieved must not exceed
			// predicted by more than the per-experiment overshoot bound.
			overshootBound := optSum.ForwardPredictedDelta + uint64(optSum.Experiments)*32
			if tc.deltas && optSum.ForwardDeltaCycles > overshootBound {
				t.Errorf("achieved delta %d far above predicted %d",
					optSum.ForwardDeltaCycles, optSum.ForwardPredictedDelta)
			}
			if len(intRecs) != len(optRecs) {
				t.Fatalf("record counts differ: interval %d, optimal %d", len(intRecs), len(optRecs))
			}
			// Records are logged under the campaign name, which differs
			// between the two stores; normalize it away before comparing.
			for i := range intRecs {
				a := strings.ReplaceAll(intRecs[i], "placement-int", "placement-X")
				b := strings.ReplaceAll(optRecs[i], "placement-opt", "placement-X")
				if a != b {
					t.Errorf("record %d differs between placements\ninterval %s\noptimal  %s", i, a, b)
				}
			}
			t.Logf("interval: emulated %d predicted-delta %d achieved-delta %d (%d checkpoints' worth)",
				intSum.CyclesEmulated, intSum.ForwardPredictedDelta, intSum.ForwardDeltaCycles, intSum.Forwarded)
			t.Logf("optimal:  emulated %d predicted-delta %d achieved-delta %d",
				optSum.CyclesEmulated, optSum.ForwardPredictedDelta, optSum.ForwardDeltaCycles)
		})
	}
}
