package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// hyperGrid returns a spread of hyperparameter points covering the region
// the slice sampler explores.
func hyperGrid() []Hyper {
	var out []Hyper
	for _, ll := range []float64{math.Log(0.05), math.Log(0.4), math.Log(2)} {
		for _, ls := range []float64{-1, 0, 1} {
			for _, ln := range []float64{math.Log(0.01), math.Log(0.1), math.Log(1)} {
				out = append(out, Hyper{LogLen: ll, LogSignal: ls, LogNoise: ln})
			}
		}
	}
	return out
}

// TestTrainSetLogPosteriorMatchesFit pins the amortized posterior evaluation
// to the Fit-per-step oracle: over a grid of hyperparameters and several
// training-set shapes, the cached-distance evaluation must agree to ≤1e-10
// (it is constructed to be bit-identical; the tolerance guards the pin
// against architecture-level FMA differences).
func TestTrainSetLogPosteriorMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{3, 17, 60} {
		for _, d := range []int{1, 4, 10} {
			xs, ys := trainSet(n, d, rng)
			ts, err := NewTrainSet(xs, ys, 0)
			if err != nil {
				t.Fatal(err)
			}
			var ws FitWorkspace
			for _, h := range hyperGrid() {
				want := logPosterior(xs, ys, h)
				got := ts.LogPosterior(h, &ws, 1)
				if math.IsInf(want, -1) != math.IsInf(got, -1) {
					t.Fatalf("n=%d d=%d h=%+v: PD disagreement: fit %v, cached %v", n, d, h, want, got)
				}
				if math.IsInf(want, -1) {
					continue
				}
				if diff := math.Abs(got - want); diff > 1e-10 {
					t.Fatalf("n=%d d=%d h=%+v: cached %v vs fit %v (diff %g)", n, d, h, got, want, diff)
				}
			}
		}
	}
}

// TestTrainSetLogPosteriorParallelMapIdentical: the row-parallel kernel map
// writes disjoint rows, so every worker count must produce the same value
// bit-for-bit.
func TestTrainSetLogPosteriorParallelMapIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	xs, ys := trainSet(40, 5, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultHyper()
	var ws FitWorkspace
	want := ts.LogPosterior(h, &ws, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		var pws FitWorkspace
		if got := ts.LogPosterior(h, &pws, workers); got != want {
			t.Fatalf("workers=%d: %v != %v", workers, got, want)
		}
	}
}

// TestTrainSetLogPosteriorZeroAlloc is the amortization guarantee itself:
// once the workspace is warm, a posterior evaluation — one slice-step's unit
// of work — must allocate nothing.
func TestTrainSetLogPosteriorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	xs, ys := trainSet(50, 6, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ws FitWorkspace
	h := DefaultHyper()
	ts.LogPosterior(h, &ws, 1) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		ts.LogPosterior(h, &ws, 1)
	})
	if allocs > 0 {
		t.Fatalf("LogPosterior allocates %.1f objects per evaluation; want 0", allocs)
	}
}

// TestLogPosteriorCorrelationCacheExact: a workspace that keeps its
// correlation matrix between evaluations must return, at every step of any
// sequence, exactly what a fresh workspace returns — along runs that hold
// LogLen (cache hits), across LogLen moves and returns (misses), when the
// same workspace then serves a different TrainSet of equal size at the very
// LogLen it last cached (the stale-cache guard: same n, same key, other
// distances), across a size change, and at 1, 2 and 4 workers.
func TestLogPosteriorCorrelationCacheExact(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	xa, ya := trainSet(40, 5, rng)
	xb, yb := trainSet(40, 5, rng)
	xc, yc := trainSet(23, 5, rng)
	var sets []*TrainSet
	for _, d := range []struct {
		x [][]float64
		y []float64
	}{{xa, ya}, {xb, yb}, {xc, yc}} {
		ts, err := NewTrainSet(d.x, d.y, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	// A slice-sampler-shaped walk: one coordinate moves per step, so LogLen
	// stands still for runs of steps and sometimes comes back to an old value.
	lens := []float64{math.Log(0.4), math.Log(0.15), math.Log(1.3)}
	var walk []Hyper
	h := DefaultHyper()
	for i := 0; i < 60; i++ {
		switch i % 5 {
		case 0:
			h.LogLen = lens[rng.Intn(len(lens))]
		case 1, 2:
			h.LogSignal = rng.NormFloat64() * 0.7
		default:
			h.LogNoise = math.Log(0.1) + rng.NormFloat64()*0.7
		}
		walk = append(walk, h)
	}
	for _, workers := range []int{1, 2, 4} {
		var cached FitWorkspace
		hits := 0
		for i, h := range walk {
			// Sets A and B alternate in blocks, so a block often opens at
			// the LogLen the other set just cached; C changes the size.
			ts := sets[(i/7)%3]
			if cached.corrTS == ts && cached.corrLogLen == h.LogLen {
				hits++
			}
			var fresh FitWorkspace
			want := ts.LogPosterior(h, &fresh, 1)
			if got := ts.LogPosterior(h, &cached, workers); got != want {
				t.Fatalf("workers=%d step %d set %d h=%+v: cached workspace %v, fresh %v", workers, i, (i/7)%3, h, got, want)
			}
		}
		if hits < len(walk)/3 {
			t.Fatalf("walk reused the correlations on %d of %d steps; the cache is not being exercised", hits, len(walk))
		}
	}
}

// TestTrainSetFitMatchesFit: a GP materialized from the cached distances
// must be indistinguishable from gp.Fit on the same data — and must stay an
// independent model (appending to it does not corrupt the TrainSet).
func TestTrainSetFitMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	xs, ys := trainSet(30, 4, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Hyper{DefaultHyper(), {LogLen: math.Log(0.2), LogSignal: 0.5, LogNoise: math.Log(0.05)}} {
		want, err := Fit(xs, ys, h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ts.Fit(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			q := make([]float64, 4)
			for j := range q {
				q[j] = rng.Float64()*1.2 - 0.1
			}
			mw, vw := want.Predict(q)
			mg, vg := got.Predict(q)
			if math.Abs(mw-mg) > 1e-12 || math.Abs(vw-vg) > 1e-12 {
				t.Fatalf("h=%+v q=%v: cached fit %v±%v vs Fit %v±%v", h, q, mg, vg, mw, vw)
			}
		}
		if diff := math.Abs(want.LogMarginalLikelihood() - got.LogMarginalLikelihood()); diff > 1e-10 {
			t.Fatalf("evidence differs by %g", diff)
		}
		// Appending to the materialized model must not disturb the TrainSet.
		var ws FitWorkspace
		before := ts.LogPosterior(h, &ws, 1)
		if err := got.Append([]float64{0.5, 0.5, 0.5, 0.5}, 1.0); err != nil {
			t.Fatal(err)
		}
		if after := ts.LogPosterior(h, &ws, 1); after != before {
			t.Fatalf("appending to a TrainSet.Fit model changed the TrainSet posterior: %v -> %v", before, after)
		}
	}
}

// TestTrainSetErrors mirrors Fit's validation.
func TestTrainSetErrors(t *testing.T) {
	if _, err := NewTrainSet(nil, nil, 0); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := NewTrainSet([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewTrainSet([][]float64{{1}, {1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

// TestSampleHyperDeterministicAcrossWorkers: for one rng seed the
// multi-chain sampler must return bit-identical samples at every worker
// count — chain streams are a pure function of (seed, chain index), and the
// pool only schedules them.
func TestSampleHyperDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	xs, ys := trainSet(20, 3, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := ts.SampleHyper(n, rand.New(rand.NewSource(9)), 1)
	if len(want) != n {
		t.Fatalf("got %d samples", len(want))
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := ts.SampleHyper(n, rand.New(rand.NewSource(9)), workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d sample %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSampleHyperChainsIndependent: distinct chains must not share a stream
// (identical chains would defeat the marginalization).
func TestSampleHyperChainsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs, ys := trainSet(15, 2, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := ts.SampleHyper(6, rand.New(rand.NewSource(3)), 0)
	moved := false
	for _, h := range hs[1:] {
		if h != hs[0] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("all chains returned the same state")
	}
}

// TestSampleHyperCrossCheckSerial is the statistical guard: the multi-chain
// sampler and the serial reference explore the same posterior, so the
// posterior mass their samples sit on must be comparable. (Positions are NOT
// comparable: the marginal-likelihood surface is nearly flat along a
// signal/length-scale ridge, so two correct short-run samplers drift to
// different coordinates at equal posterior height. Quality — did the chains
// burn into the posterior bulk? — is exactly the per-sample log posterior.)
func TestSampleHyperCrossCheckSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	xs, ys := trainSet(25, 3, rng)
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	multi := ts.SampleHyper(n, rand.New(rand.NewSource(7)), 0)
	serial := sampleHyperSerial(xs, ys, n, rand.New(rand.NewSource(7)))
	if len(multi) != n || len(serial) != n {
		t.Fatalf("sample counts %d / %d", len(multi), len(serial))
	}
	meanLP := func(hs []Hyper) float64 {
		var ws FitWorkspace
		var s float64
		for _, h := range hs {
			lp := ts.LogPosterior(h, &ws, 1)
			if math.IsInf(lp, -1) || math.IsNaN(lp) {
				t.Fatalf("sample %+v has unusable posterior %v", h, lp)
			}
			s += lp
		}
		return s / float64(len(hs))
	}
	mLP, sLP := meanLP(multi), meanLP(serial)
	// The multi-chain samples must sit on posterior mass comparable to the
	// reference's — a chain that failed to burn in sits tens of nats below.
	if mLP < sLP-3 {
		t.Fatalf("multi-chain samples average %.2f nats of log posterior vs serial %.2f", mLP, sLP)
	}
	// And they must not collapse to a point: the marginalization needs
	// spread. Compare total variance against the serial reference's.
	spread := func(hs []Hyper) float64 {
		var ml, ms, mn float64
		for _, h := range hs {
			ml += h.LogLen
			ms += h.LogSignal
			mn += h.LogNoise
		}
		k := float64(len(hs))
		ml, ms, mn = ml/k, ms/k, mn/k
		var v float64
		for _, h := range hs {
			v += (h.LogLen-ml)*(h.LogLen-ml) + (h.LogSignal-ms)*(h.LogSignal-ms) + (h.LogNoise-mn)*(h.LogNoise-mn)
		}
		return v / k
	}
	if mv, sv := spread(multi), spread(serial); mv < sv/25 {
		t.Fatalf("multi-chain spread %.4f collapsed vs serial %.4f", mv, sv)
	}
}

// TestSampleHyperSerialUnchanged pins the reference sampler's contract: same
// outputs shape, usable samples, movement — and, for degenerate data, the
// default-hyper fallback in both samplers.
func TestSampleHyperSerialUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	xs, ys := trainSet(15, 2, rng)
	hs := sampleHyperSerial(xs, ys, 5, rand.New(rand.NewSource(1)))
	if len(hs) != 5 {
		t.Fatalf("got %d samples", len(hs))
	}
	for i, h := range hs {
		if _, err := Fit(xs, ys, h); err != nil {
			t.Fatalf("sample %d unusable: %v", i, err)
		}
	}
	if got := sampleHyperSerial(xs, ys, 0, rand.New(rand.NewSource(1))); got != nil {
		t.Fatal("n=0 should return nil")
	}
	// Both samplers fall back to DefaultHyper on degenerate (non-PD) data.
	degX := [][]float64{{0.5}, {0.5}, {0.5}}
	degY := []float64{1, 2, 3}
	h := Hyper{LogLen: math.Log(0.4), LogSignal: -200, LogNoise: -200}
	if !math.IsInf(logPosterior(degX, degY, h), -1) {
		t.Skip("degenerate case unexpectedly PD on this platform")
	}
}

// BenchmarkLogPosterior evaluates the posterior in one chain's workspace at
// n = 49 (a cold session's mean) and n = 80 over 9 features, cycling through
// hyperparameters of which one in three moves the length-scale, as a
// slice-sampling sweep over the three coordinates does: the other two
// rescale the cached correlations.
func BenchmarkLogPosterior(b *testing.B) {
	a, c := math.Log(0.3), math.Log(0.5)
	hs := []Hyper{{a, 0, -2}, {a, 0.1, -2}, {a, 0.1, -2.5}, {c, 0.1, -2.5}, {c, 0.2, -2.5}, {c, 0.2, -2}}
	for _, n := range []int{49, 80} {
		xs, ys := trainSet(n, 9, rand.New(rand.NewSource(16)))
		ts, err := NewTrainSet(xs, ys, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ws FitWorkspace
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if math.IsInf(ts.LogPosterior(hs[i%len(hs)], &ws, 1), -1) {
					b.Fatal("covariance not positive definite")
				}
				i++
			}
		})
	}
}
