package main

import (
	"math"
	"sort"
)

// quantileSorted returns the p-th percentile (0–100) of an ascending slice
// by linear interpolation between order statistics.
func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// percentileLadder is the set of percentiles a tail metric may report.
var percentileLadder = []float64{50, 75, 90, 95, 99}

// highestPercentile applies the reporting rule for tails: the highest ladder
// percentile that still has at least ten samples beyond it. Fewer than
// twenty samples support nothing above the median.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// Count in integer hundredths so 1000 samples at p99 are exactly ten.
		if n*int(math.Round((100-p)*100)) >= 10*10000 {
			best = p
		}
	}
	return best
}
