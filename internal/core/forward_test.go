package core

import (
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/trigger"
)

// TestForwardPlan pins the checkpoint plan forwardPlan derives from a
// campaign definition: interval points over a randomised cycle window,
// one point just before a fixed trigger, and no plan where forwarding
// cannot apply.
func TestForwardPlan(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(c *campaign.Campaign, fw *ForwardConfig)
		first  uint64 // expected first point
		single bool   // a fixed-trigger plan has exactly one point
		noPlan bool
	}{
		{"window", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.RandomWindow = [2]uint64{1000, 100_000}
		}, 1000 - forwardMargin, false, false},
		{"narrow-window", func(c *campaign.Campaign, _ *ForwardConfig) {
			// (hi-lo)/64 is below minForwardInterval.
			c.RandomWindow = [2]uint64{200, 1000}
		}, 200 - forwardMargin, false, false},
		{"window-at-margin", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.RandomWindow = [2]uint64{forwardMargin, 50_000}
		}, 1, false, false},
		{"fixed-cycle", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.Trigger = trigger.Spec{Kind: "cycle", Cycle: 5000}
		}, 5000 - forwardMargin, true, false},
		{"fixed-instret", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.Trigger = trigger.Spec{Kind: "instret", Count: 3000}
		}, 3000 - forwardMargin, true, false},
		{"fixed-at-margin", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.Trigger = trigger.Spec{Kind: "cycle", Cycle: forwardMargin}
		}, 0, false, true},
		{"detail-mode", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.RandomWindow = [2]uint64{1000, 100_000}
			c.LogMode = campaign.LogDetail
		}, 0, false, true},
		{"not-cycle-monotonic", func(c *campaign.Campaign, _ *ForwardConfig) {
			c.Trigger = trigger.Spec{Kind: "breakpoint", Addr: 0x40}
		}, 0, false, true},
		{"disabled", func(c *campaign.Campaign, fw *ForwardConfig) {
			c.RandomWindow = [2]uint64{1000, 100_000}
			fw.Disabled = true
		}, 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			camp := fakeCampaign(10)
			var fw ForwardConfig
			tc.edit(camp, &fw)
			r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithForwarding(fw))
			if err != nil {
				t.Fatal(err)
			}
			plan := r.forwardPlan()
			if tc.noPlan {
				if plan != nil {
					t.Fatalf("want no plan, got %v", plan.Cycles)
				}
				return
			}
			if plan == nil || len(plan.Cycles) == 0 {
				t.Fatal("no plan")
			}
			if plan.Campaign != camp.Name || plan.MaxBytes != DefaultMaxForwardBytes {
				t.Errorf("plan campaign %q, max bytes %d", plan.Campaign, plan.MaxBytes)
			}
			if plan.Cycles[0] != tc.first {
				t.Errorf("first point %d, want %d", plan.Cycles[0], tc.first)
			}
			if tc.single && len(plan.Cycles) != 1 {
				t.Errorf("fixed trigger planned %d points, want 1", len(plan.Cycles))
			}
			if len(plan.Cycles) > DefaultMaxForwardCheckpoints {
				t.Errorf("%d points over the %d budget", len(plan.Cycles), DefaultMaxForwardCheckpoints)
			}
			for i := 1; i < len(plan.Cycles); i++ {
				if plan.Cycles[i]-plan.Cycles[i-1] < minForwardInterval {
					t.Errorf("points %d and %d closer than %d cycles", plan.Cycles[i-1], plan.Cycles[i], minForwardInterval)
				}
			}
			if hi := camp.RandomWindow[1]; hi > 0 && plan.Cycles[len(plan.Cycles)-1] >= hi {
				t.Errorf("last point %d not before window end %d", plan.Cycles[len(plan.Cycles)-1], hi)
			}
		})
	}
}
