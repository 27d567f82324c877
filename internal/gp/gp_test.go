package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultHyper()); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultHyper()); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultHyper()); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	x := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := []float64{0, 1, 0, -1, 0}
	h := DefaultHyper()
	h.LogNoise = math.Log(1e-4) // near-noiseless
	g, err := Fit(x, y, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		m, v := g.Predict(x[i])
		if math.Abs(m-y[i]) > 0.05 {
			t.Fatalf("mean at training point %d = %v; want %v", i, m, y[i])
		}
		if v < 0 {
			t.Fatalf("negative variance %v", v)
		}
	}
}

func TestVarianceGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0.4}, {0.5}, {0.6}}
	y := []float64{1, 2, 1}
	g, err := Fit(x, y, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{3.0})
	if vFar <= vNear {
		t.Fatalf("variance far (%v) not above variance near (%v)", vFar, vNear)
	}
}

func TestPredictRecoverSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(x float64) float64 { return math.Sin(3*x) + 0.5*x }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		v := rng.Float64()
		xs = append(xs, []float64{v})
		ys = append(ys, f(v)+rng.NormFloat64()*0.01)
	}
	h := Hyper{LogLen: math.Log(0.3), LogSignal: 0, LogNoise: math.Log(0.05)}
	g, err := Fit(xs, ys, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m, _ := g.Predict([]float64{q})
		if math.Abs(m-f(q)) > 0.15 {
			t.Fatalf("prediction at %v = %v; want ≈%v", q, m, f(q))
		}
	}
}

func TestHyperAccessors(t *testing.T) {
	h := Hyper{LogLen: math.Log(2), LogSignal: math.Log(3), LogNoise: math.Log(0.5)}
	if math.Abs(h.Len()-2) > 1e-12 {
		t.Fatal("Len wrong")
	}
	if math.Abs(h.Signal2()-9) > 1e-9 {
		t.Fatal("Signal2 wrong")
	}
	if math.Abs(h.Noise2()-0.25) > 1e-12 {
		t.Fatal("Noise2 wrong")
	}
}

func TestKernelProperties(t *testing.T) {
	h := DefaultHyper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		k := h.kernel()
		kab := k.of(sqDist(a, b))
		kba := k.of(sqDist(b, a))
		kaa := k.of(sqDist(a, a))
		// Symmetry, boundedness by the diagonal, positivity.
		return kab == kba && kab > 0 && kab <= kaa+1e-12 &&
			math.Abs(kaa-h.Signal2()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogMarginalLikelihoodPrefersGoodFit(t *testing.T) {
	// Data drawn from a smooth function: a sensible length-scale must have a
	// higher evidence than an absurdly tiny one that treats everything as
	// independent noise.
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		v := rng.Float64()
		xs = append(xs, []float64{v})
		ys = append(ys, math.Sin(4*v))
	}
	good := Hyper{LogLen: math.Log(0.3), LogSignal: 0, LogNoise: math.Log(0.05)}
	bad := Hyper{LogLen: math.Log(0.001), LogSignal: 0, LogNoise: math.Log(0.05)}
	gGood, err := Fit(xs, ys, good)
	if err != nil {
		t.Fatal(err)
	}
	gBad, err := Fit(xs, ys, bad)
	if err != nil {
		t.Fatal(err)
	}
	if gGood.LogMarginalLikelihood() <= gBad.LogMarginalLikelihood() {
		t.Fatalf("evidence: good %v <= bad %v", gGood.LogMarginalLikelihood(), gBad.LogMarginalLikelihood())
	}
}

func TestSampleHyper(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 15; i++ {
		v := rng.Float64()
		xs = append(xs, []float64{v})
		ys = append(ys, math.Sin(4*v)+rng.NormFloat64()*0.05)
	}
	ts, err := NewTrainSet(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := ts.SampleHyper(6, rng, 0)
	if len(hs) != 6 {
		t.Fatalf("got %d samples", len(hs))
	}
	// All samples must yield fittable GPs, and the chain must move.
	moved := false
	for i, h := range hs {
		if _, err := Fit(xs, ys, h); err != nil {
			t.Fatalf("sample %d unusable: %v", i, err)
		}
		if h != hs[0] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("slice sampler never moved")
	}
	if got := ts.SampleHyper(0, rng, 0); got != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestGPNAndHyper(t *testing.T) {
	g, err := Fit([][]float64{{0}, {1}}, []float64{1, 2}, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatal("N wrong")
	}
	if g.Hyper() != DefaultHyper() {
		t.Fatal("Hyper wrong")
	}
}

func TestConstantTargets(t *testing.T) {
	// Degenerate y (zero variance) must not blow up.
	g, err := Fit([][]float64{{0}, {0.5}, {1}}, []float64{5, 5, 5}, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	m, v := g.Predict([]float64{0.25})
	if math.Abs(m-5) > 0.5 || v < 0 {
		t.Fatalf("constant-target prediction = %v ± %v", m, v)
	}
}

// trainSet draws n noisy observations of a smooth d-dimensional function.
func trainSet(n, d int, rng *rand.Rand) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		var s float64
		for j := range x {
			x[j] = rng.Float64()
			s += math.Sin(3*x[j]) * float64(j+1)
		}
		xs[i] = x
		ys[i] = s + rng.NormFloat64()*0.05
	}
	return xs, ys
}

// TestAppendMatchesFit is the numerical-drift guard of the incremental
// surrogate layer: a GP grown point-by-point (and batch-by-batch) from a
// prefix must agree with a from-scratch Fit on the full set to 1e-8 in
// posterior mean, variance and evidence.
func TestAppendMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, d = 40, 3
	xs, ys := trainSet(n, d, rng)
	h := DefaultHyper()

	full, err := Fit(xs, ys, h)
	if err != nil {
		t.Fatal(err)
	}

	// One-at-a-time appends.
	inc, err := Fit(xs[:10], ys[:10], h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 25; i++ {
		if err := inc.Append(xs[i], ys[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// The rest as one batch — the warm-start prior-injection shape.
	if err := inc.AppendBatch(xs[25:], ys[25:]); err != nil {
		t.Fatal(err)
	}

	if inc.N() != full.N() {
		t.Fatalf("N = %d, want %d", inc.N(), full.N())
	}
	const tol = 1e-8
	for i := 0; i < 50; i++ {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()*1.4 - 0.2
		}
		mi, vi := inc.Predict(q)
		mf, vf := full.Predict(q)
		if math.Abs(mi-mf) > tol || math.Abs(vi-vf) > tol {
			t.Fatalf("predict(%v): incremental %v±%v vs fit %v±%v", q, mi, vi, mf, vf)
		}
	}
	if diff := math.Abs(inc.LogMarginalLikelihood() - full.LogMarginalLikelihood()); diff > tol {
		t.Fatalf("evidence drifted by %v", diff)
	}
}

func TestAppendErrors(t *testing.T) {
	g, err := Fit([][]float64{{0}, {0.5}, {1}}, []float64{1, 2, 3}, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{0, 1}, 4); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := g.AppendBatch([][]float64{{0.2}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := g.AppendBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// A failed append must leave the model usable.
	if g.N() != 3 {
		t.Fatalf("N = %d after failed appends, want 3", g.N())
	}
	if m, v := g.Predict([]float64{0.25}); math.IsNaN(m) || v <= 0 {
		t.Fatalf("model unusable after failed appends: %v ± %v", m, v)
	}
}

func TestGPCloneIndependent(t *testing.T) {
	xs, ys := trainSet(12, 2, rand.New(rand.NewSource(22)))
	base, err := Fit(xs, ys, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.4, 0.6}
	m0, v0 := base.Predict(q)
	cl := base.Clone()
	if err := cl.Append([]float64{0.41, 0.59}, 99); err != nil {
		t.Fatal(err)
	}
	if base.N() != 12 || cl.N() != 13 {
		t.Fatalf("N base=%d clone=%d", base.N(), cl.N())
	}
	if m, v := base.Predict(q); m != m0 || v != v0 {
		t.Fatal("appending to the clone changed the original's posterior")
	}
}
