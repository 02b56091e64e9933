package scifi

import "goofi/internal/core"

// ForwardCostCycles implements core.ForwardCalibrator with the nominal
// checkpoint cost of 128 cycles the calibration used to fall back to.
//
// Deprecated: it used to time a board snapshot against a scratch CPU's
// emulation speed to price checkpoints for the DP placement planner.
// That planner was deleted (interval placement plus the horizon guard
// emulates within 0.1% of it on E1 and skips its plan-time cost), so
// nothing consumes the price; the method remains only because the
// perfbench harness still type-asserts targets against
// core.ForwardCalibrator.
func (t *Target) ForwardCostCycles() uint64 { return 128 }

var _ core.ForwardCalibrator = (*Target)(nil)
