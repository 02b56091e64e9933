package main

import (
	"math"
	"sort"
	"time"

	"goofi/internal/core"
)

// residualFlagAbove is the residual share above which a trace is
// flagged: more than a tenth of board time is not explained by the
// timed layers.
const residualFlagAbove = 0.10

// tailPermille lists the candidate tail percentiles, in permille, from
// the highest down.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// rankOf is the 1-based nearest rank of the permille-th percentile of n
// sorted samples.
func rankOf(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest candidate percentile (in permille)
// that leaves at least ten of n samples above it; ok is false when n is
// too small for any.
func tailPercentile(n int) (permille int, ok bool) {
	for _, p := range tailPermille {
		if n-rankOf(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank permille-th percentile of sorted.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(permille, len(sorted))-1]
}

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// trimFrac is the share of campaigns dropped at each end before the
// end-to-end metrics average the rest.
const trimFrac = 0.10

// trimmedMean is the mean of xs without its lowest and highest frac of
// values, or 0 for no values. At least one value always remains.
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(float64(len(s)) * frac)
	if 2*k >= len(s) {
		k = (len(s) - 1) / 2
	}
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durations converts spans to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// timing summarises one layer timing as the reports print it: the
// median, the highest percentile with at least ten samples beyond it,
// and the sample count.
type timing struct {
	n          int
	median     float64
	tailPm     int
	tail       float64
	hasTail    bool
	unitSuffix string
}

func summarise(xs []float64, unit string) timing {
	s := sortedCopy(xs)
	t := timing{n: len(s), median: median(s), unitSuffix: unit}
	if pm, ok := tailPercentile(len(s)); ok {
		t.tailPm, t.tail, t.hasTail = pm, percentile(s, pm), true
	}
	return t
}

// residualFrac is the share of board time the timed layers do not
// explain: 1 − busy / (boards × wall).
func residualFrac(busy time.Duration, boards int, wall time.Duration) float64 {
	if boards <= 0 || wall <= 0 {
		return math.NaN()
	}
	return 1 - float64(busy)/(float64(boards)*float64(wall))
}

// experimentAttempts counts experiment attempts and failed attempts from
// a campaign summary. Every retry is a failed attempt followed by
// another; an invalid run is an experiment whose last attempt failed too.
func experimentAttempts(sum *core.Summary) (attempted, failed int64) {
	attempted = int64(sum.Experiments + sum.Retried)
	failed = int64(sum.Retried + sum.InvalidRuns)
	return attempted, failed
}

// errorRate is failed operations over attempted operations.
func errorRate(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
