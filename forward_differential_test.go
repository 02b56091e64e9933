package goofi_test

import (
	"encoding/json"
	"fmt"
	"reflect"
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
// as a cold one — while emulating measurably fewer cycles. Cycle
// counts are deterministic for a fixed seed, so a case may pin an upper
// bound on the forwarded campaign's emulated cycles.
func TestForwardingDifferential(t *testing.T) {
	cases := []struct {
		name string
		camp func(name string) *campaign.Campaign
		// maxWarmCycles, when set, bounds the forwarded campaign's
		// emulated cycles (reference run included).
		maxWarmCycles uint64
	}{
		{"pid-envsim-transient", func(name string) *campaign.Campaign {
			// PID with the first-order plant: exercises the environment-
			// simulator snapshot path on restore.
			c := pidCampaign(name, 12, 17)
			c.RandomWindow = [2]uint64{200, 4000}
			return c
		}, 0},
		{"sort-stuckat1-persistent", func(name string) *campaign.Campaign {
			// Sort without a simulator, persistent stuck-at faults:
			// exercises reassertion after a forwarded restore.
			c := sortCampaign(name, 12, 23, []string{"cpu"})
			c.FaultModel = faultmodel.Spec{Kind: faultmodel.StuckAt1}
			return c
		}, 0},
		{"e1", func(name string) *campaign.Campaign {
			// The E1 PID campaign, 40 experiments, seed 1, window
			// 200–8000: the cycle gate CI's bench-smoke runs. The
			// reference run ends near cycle 4,400, so about half the
			// injections restore the horizon guard. Cold emulates
			// 201,503 cycles; 63,090 is the forwarded count at the
			// time the bound was pinned.
			return pidCampaign(name, 40, 1)
		}, 63_090},
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
				if tc.maxWarmCycles > 0 && warmSum.CyclesEmulated > tc.maxWarmCycles {
					t.Errorf("warm run emulated %d cycles, bound %d — forwarding regressed",
						warmSum.CyclesEmulated, tc.maxWarmCycles)
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
