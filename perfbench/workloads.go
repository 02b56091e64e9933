package main

// The four workloads. Each stresses different layers, so that a change
// to one layer has a workload that exercises it and one that bypasses
// it (see README.md for the layer → metric → workload map).

import (
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// spec is one named workload: a campaign definition drawn from the seed
// plus how it is executed.
type spec struct {
	name string
	// target is the registry kind the boards run; layer names its
	// target-method metrics ("scifi" or "proctarget").
	target, layer string
	// boards is the board count of the measured runs; checkBoards the
	// board count of the extra run whose record digest must match (0:
	// no such check, for targets without byte-identical outcomes).
	boards, checkBoards int
	// sharded runs the campaign through an in-process goofid with
	// external shard workers instead of a solo runner.
	sharded bool
	// deterministic targets must log byte-identical records for a seed.
	deterministic bool
	campaign      func(seed int64, victim string) *campaign.Campaign
}

const (
	sort16Experiments = 2000
	pidExperiments    = 200
	pidIterations     = 4000
	procExperiments   = 200
)

// sort16Campaign is many short experiments (~1k cycles each): record,
// WAL and dispatch costs dominate, emulation is small.
func sort16Campaign(seed int64, _ string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           "sort16",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: sort16Experiments,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

// pidLongCampaign is the E1 PID campaign with the first-order plant,
// run for many more control iterations over a wide injection window, so
// thor run-to-termination dominates the boards.
func pidLongCampaign(seed int64, _ string) *campaign.Campaign {
	wl := workload.PID()
	wl.OutputTail = 10
	wl.OutputTolerance = 512
	wl.ResultTolerance = 512
	return &campaign.Campaign{
		Name:           "pid-long",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu", "icache", "dcache"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{200, 200_000},
		NumExperiments: pidExperiments,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 2_000_000, MaxIterations: pidIterations},
		Workload:       wl,
		EnvSim:         &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:        campaign.LogNormal,
	}
}

// procMatmulCampaign flips register bits in a live matmul process. The
// window is a single-step budget after the workload breakpoint; the
// timeout is a wall-clock watchdog in microseconds.
func procMatmulCampaign(seed int64, victim string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           "proc-matmul",
		TargetName:     "proc-board",
		ChainName:      "registers",
		Locations:      []string{"gpr"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 1},
		Trigger:        trigger.Spec{Kind: "cycle", Occurrence: 1},
		RandomWindow:   [2]uint64{1, 200},
		NumExperiments: procExperiments,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 500_000},
		Workload:       campaign.WorkloadSpec{Name: "victim:matmul", Source: victim},
		LogMode:        campaign.LogNormal,
	}
}

var workloads = []spec{
	{name: "pid-long", target: "scifi", layer: "scifi", boards: 2, checkBoards: 1,
		deterministic: true, campaign: pidLongCampaign},
	{name: "sort16-wal", target: "scifi", layer: "scifi", boards: 1, checkBoards: 2,
		deterministic: true, campaign: sort16Campaign},
	{name: "sort16-sharded", target: shardedKind, layer: "scifi", boards: 2,
		sharded: true, deterministic: true, campaign: sort16Campaign},
	{name: "proc-matmul", target: "proc", layer: "proctarget", boards: 2,
		campaign: procMatmulCampaign},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
