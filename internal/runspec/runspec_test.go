package runspec_test

import (
	"context"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/runspec"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// TestStoredForwarding loads stored settings rows and builds runners
// from them. Rows written while a second checkpoint placement existed
// name "interval" or "optimal"; both must run forwarded, "off" must run
// cold, and an unknown value is stored input that Build rejects.
func TestStoredForwarding(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blob    string
		forward bool
		bad     bool
	}{
		{"default", `{}`, true, false},
		{"interval", `{"forwarding":"interval"}`, true, false},
		{"optimal", `{"forwarding":"optimal"}`, true, false},
		{"off", `{"forwarding":"off"}`, false, false},
		{"bogus", `{"forwarding":"bogus"}`, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := campaign.NewStore(sqldb.Open())
			if err != nil {
				t.Fatal(err)
			}
			camp := &campaign.Campaign{
				Name:           "c",
				TargetName:     "thor-board",
				ChainName:      "internal",
				Locations:      []string{"cpu"},
				FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
				Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
				RandomWindow:   [2]uint64{10, 1600},
				NumExperiments: 6,
				Seed:           2026,
				Termination:    campaign.Termination{TimeoutCycles: 100_000},
				Workload:       workload.All()["sort16"],
				LogMode:        campaign.LogNormal,
			}
			if err := st.PutTargetSystem(scifi.TargetSystemData(camp.TargetName)); err != nil {
				t.Fatal(err)
			}
			if err := st.PutCampaign(camp); err != nil {
				t.Fatal(err)
			}
			if err := st.PutRunSpec(camp.Name, []byte(tc.blob)); err != nil {
				t.Fatal(err)
			}
			set, err := runspec.Load(st, camp.Name)
			if err != nil {
				t.Fatal(err)
			}
			run, err := runspec.Build(st, camp, runspec.Spec{Settings: set}, nil, runspec.Attach{})
			if tc.bad {
				if err == nil {
					run.Sink.Close()
					t.Fatal("Build accepted an unknown forwarding value")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sum, err := run.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Sink.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sum.Forwarded > 0; got != tc.forward {
				t.Errorf("forwarded %d of %d experiments, want forwarding %v",
					sum.Forwarded, sum.Experiments, tc.forward)
			}
		})
	}
}
