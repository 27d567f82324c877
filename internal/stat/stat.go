// Package stat provides the statistics toolkit used throughout the tuner:
// descriptive statistics (mean, standard deviation, coefficient of variation),
// fractional ranks, Pearson correlation, mean squared error, and Latin
// Hypercube Sampling for Bayesian-optimization warm starts.
//
// The coefficient of variation (CV) is the measure LOCAT's QCSA stage uses to
// decide whether a query is configuration-sensitive (paper Section 3.2,
// equation 3); the Spearman correlation of IICP's CPS filter (Section 3.3.2)
// is the Pearson correlation of two rank vectors, Pearson(Ranks(x),
// Ranks(y)), which lets CPS rank the latencies once for every parameter.
package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (divide by n, matching the paper's
// equation 3 which uses 1/N inside the square root).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation: standard deviation divided by the
// mean (paper equation 3). A zero mean yields CV 0 to avoid division blowups
// on degenerate inputs.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// MSE returns the mean squared error between predictions and targets.
// The slices must have equal, non-zero length.
func MSE(pred, want []float64) float64 {
	if len(pred) != len(want) || len(pred) == 0 {
		panic("stat: MSE length mismatch")
	}
	var s float64
	for i := range pred {
		d := pred[i] - want[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// Min returns the minimum of xs; it panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Ranks returns the fractional ranks of xs (average rank for ties), 1-based,
// as used by Spearman correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank over the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation coefficient between x and y.
// Constant inputs yield 0.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		panic("stat: Pearson length mismatch")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stat: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// NormPDF is the standard normal density.
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormCDF is the standard normal cumulative distribution function.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
