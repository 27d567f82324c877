package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The serial reference sampler's schedule: burn-in iterations before a state
// is trusted and the thinning stride between emitted states.
const (
	sliceBurn = 5
	sliceThin = 2
)

// logPosterior is the unnormalized log posterior of hyperparameters h given
// the data: log marginal likelihood + log prior. Returns -Inf when the
// covariance matrix is not positive definite.
//
// This is the Fit-per-evaluation reference path — a fresh O(n²·d) kernel
// assembly, a freshly allocated O(n³) factorization and a full GP per call.
// The hot path is TrainSet.LogPosterior, which produces the same value (the
// equivalence is test-pinned) from the cached distance matrix with zero
// allocations; this function remains as the oracle that equivalence test and
// the serial reference sampler evaluate.
func logPosterior(x [][]float64, y []float64, h Hyper) float64 {
	g, err := Fit(x, y, h)
	if err != nil {
		return math.Inf(-1)
	}
	return g.LogMarginalLikelihood() + logPrior(h)
}

// sampleHyperSerial is the single-chain reference sampler: one chain,
// Fit-per-evaluation posterior, burn-in then thinned emission — the exact
// pre-amortization implementation, kept for the statistical cross-check of
// the multi-chain sampler (and as the baseline of BenchmarkSampleHyper).
func sampleHyperSerial(x [][]float64, y []float64, n int, rng *rand.Rand) []Hyper {
	if n <= 0 {
		return nil
	}
	logPost := func(h Hyper) float64 { return logPosterior(x, y, h) }
	cur := DefaultHyper()
	curLP := logPost(cur)
	if math.IsInf(curLP, -1) {
		// Degenerate data; fall back to the prior default.
		out := make([]Hyper, n)
		for i := range out {
			out[i] = cur
		}
		return out
	}
	var out []Hyper
	total := sliceBurn + n*sliceThin
	for it := 0; it < total; it++ {
		for coord := 0; coord < 3; coord++ {
			cur, curLP = sliceStep(logPost, cur, curLP, coord, sliceWidth, rng)
		}
		if it >= sliceBurn && (it-sliceBurn)%sliceThin == 0 {
			out = append(out, cur)
		}
	}
	for len(out) < n {
		out = append(out, cur)
	}
	return out[:n]
}

// BenchmarkSampleHyper/Serial is the reference's row of the hyperparameter
// inference comparison (the Amortized and Workers1 rows are in the root
// bench_test.go, on the same training sets): one slice-sampling chain whose
// every posterior evaluation runs a fresh Fit.
func BenchmarkSampleHyper(b *testing.B) {
	const samples = 6
	for _, n := range []int{50, 150, 300} {
		rng := rand.New(rand.NewSource(42))
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			x := make([]float64, 9)
			var s float64
			for j := range x {
				x[j] = rng.Float64()
				s += math.Sin(3 * x[j] * float64(j+1))
			}
			xs[i] = x
			ys[i] = s + rng.NormFloat64()*0.05
		}
		b.Run(fmt.Sprintf("Serial/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := sampleHyperSerial(xs, ys, samples, rand.New(rand.NewSource(17))); len(got) != samples {
					b.Fatal("short sample")
				}
			}
		})
	}
}
