package bo

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/gp"
)

// defaultOptions mirror the paper's settings.
func defaultOptions() Options {
	return Options{
		InitPoints:  3,
		MinIter:     10,
		MaxIter:     60,
		EIStopFrac:  0.10,
		MCMCSamples: 6,
		Candidates:  512,
	}
}

// sphere has its minimum 0 at the given center.
func sphere(center []float64) func(x, ctx []float64) float64 {
	return func(x, ctx []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

func TestMinimizeSphere2D(t *testing.T) {
	center := []float64{0.3, 0.7}
	opts := defaultOptions()
	opts.MaxIter = 40
	opts.EIStopFrac = 0 // run all iterations
	opts.Seed = 1
	res := Minimize(Problem{Dim: 2, Eval: sphere(center)}, opts)
	if res.BestY > 0.01 {
		t.Fatalf("BestY = %v; want < 0.01", res.BestY)
	}
	for i := range center {
		if math.Abs(res.BestX[i]-center[i]) > 0.15 {
			t.Fatalf("BestX = %v; want ≈ %v", res.BestX, center)
		}
	}
	if res.Evals != 40 || len(res.History) != 40 {
		t.Fatalf("Evals = %d, history %d; want 40", res.Evals, len(res.History))
	}
}

func TestBeatsRandomSearch(t *testing.T) {
	// With the same evaluation budget, BO must beat pure random sampling on
	// a smooth function (compare against the best of the warm-start pool
	// enlarged to the full budget).
	center := []float64{0.52, 0.18, 0.85}
	obj := sphere(center)
	opts := defaultOptions()
	opts.MaxIter = 30
	opts.EIStopFrac = 0
	opts.Seed = 2
	res := Minimize(Problem{Dim: 3, Eval: obj}, opts)

	randOpts := opts
	randOpts.InitPoints = 30 // LHS-only ⇒ no model-guided steps
	randRes := Minimize(Problem{Dim: 3, Eval: obj}, randOpts)
	if res.BestY >= randRes.BestY {
		t.Fatalf("BO (%v) did not beat random (%v)", res.BestY, randRes.BestY)
	}
}

func TestStopCondition(t *testing.T) {
	// A flat-ish objective should trigger the EI stop quickly after MinIter.
	obj := func(x, ctx []float64) float64 { return 100 + x[0]*0.001 }
	opts := defaultOptions()
	opts.MaxIter = 50
	opts.MinIter = 10
	opts.EIStopFrac = 0.10
	opts.Seed = 3
	res := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	if !res.StoppedEarly {
		t.Fatal("stop condition never fired on flat objective")
	}
	if res.Evals < opts.MinIter {
		t.Fatalf("stopped before MinIter: %d", res.Evals)
	}
	if res.Evals >= opts.MaxIter {
		t.Fatal("ran to MaxIter despite flat objective")
	}
}

func TestContextIsPassedAndModeled(t *testing.T) {
	// Objective depends on context; optimum of x is wherever ctx says.
	ctxVal := 0.2
	p := Problem{
		Dim: 1,
		Eval: func(x, ctx []float64) float64 {
			if len(ctx) != 1 {
				t.Fatalf("ctx = %v", ctx)
			}
			d := x[0] - ctx[0]
			return d * d
		},
		Context: func(it int) []float64 { return []float64{ctxVal} },
	}
	opts := defaultOptions()
	opts.MaxIter = 25
	opts.EIStopFrac = 0
	opts.Seed = 4
	res := Minimize(p, opts)
	if math.Abs(res.BestX[0]-ctxVal) > 0.15 {
		t.Fatalf("BestX = %v; want ≈ %v", res.BestX, ctxVal)
	}
	for _, s := range res.History {
		if len(s.Ctx) != 1 || s.Ctx[0] != ctxVal {
			t.Fatalf("history ctx = %v", s.Ctx)
		}
	}
}

func TestWarmStartInit(t *testing.T) {
	// Seeding with a known good point should keep it as incumbent and skip
	// re-evaluation.
	obj := sphere([]float64{0.5})
	init := []Step{{X: []float64{0.5}, Y: 0}}
	opts := defaultOptions()
	opts.MaxIter = 5
	opts.EIStopFrac = 0
	opts.Seed = 5
	opts.Init = init
	res := Minimize(Problem{Dim: 1, Eval: obj}, opts)
	if res.BestY != 0 {
		t.Fatalf("BestY = %v; want 0 from init", res.BestY)
	}
	if res.Evals != 5 {
		t.Fatalf("Evals = %d; want 5 fresh evaluations", res.Evals)
	}
	if len(res.History) != 6 {
		t.Fatalf("history = %d; want init + 5", len(res.History))
	}
}

func TestDeterminism(t *testing.T) {
	obj := sphere([]float64{0.4, 0.6})
	opts := defaultOptions()
	opts.MaxIter = 15
	opts.Seed = 6
	a := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	b := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	if a.BestY != b.BestY || a.Evals != b.Evals {
		t.Fatalf("runs diverged: %v/%d vs %v/%d", a.BestY, a.Evals, b.BestY, b.Evals)
	}
	for i := range a.History {
		if a.History[i].Y != b.History[i].Y {
			t.Fatalf("history diverged at %d", i)
		}
	}
}

func TestOptionDefaultsApplied(t *testing.T) {
	// Zero options must not panic and must still evaluate something.
	res := Minimize(Problem{Dim: 1, Eval: sphere([]float64{0.5})}, Options{MaxIter: 4, Seed: 7})
	if res.Evals == 0 || res.BestX == nil {
		t.Fatal("degenerate options produced no work")
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	// EI must be non-negative and larger for points predicted to be better.
	obj := sphere([]float64{0.5})
	opts := defaultOptions()
	opts.MaxIter = 12
	opts.EIStopFrac = 0
	opts.Seed = 8
	res := Minimize(Problem{Dim: 1, Eval: obj}, opts)
	for _, s := range res.History {
		if s.EI < 0 {
			t.Fatalf("negative EI %v", s.EI)
		}
	}
}

func TestTrimHistory(t *testing.T) {
	var hist []Step
	for i := 0; i < 20; i++ {
		hist = append(hist, Step{X: []float64{float64(i)}, Y: float64(20 - i)})
	}
	out := trimHistory(hist, 10, nil)
	if len(out) != 10 {
		t.Fatalf("trimmed to %d; want 10", len(out))
	}
	// The global best (Y=1, last element) must survive.
	found := false
	for _, i := range out {
		if hist[i].Y == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("best observation dropped by trim")
	}
	// No trim when under the cap.
	if got := trimHistory(hist, 0, nil); len(got) != len(hist) {
		t.Fatal("cap 0 should disable trimming")
	}
	if got := trimHistory(hist, 50, nil); len(got) != len(hist) {
		t.Fatal("cap above length should not trim")
	}
}

func TestMaxModelPointsAndHyperEvery(t *testing.T) {
	// Long run with a capped model and lazy hyperparameter refresh must
	// still optimize.
	obj := sphere([]float64{0.6, 0.4})
	opts := defaultOptions()
	opts.MaxIter = 30
	opts.EIStopFrac = 0
	opts.Seed = 9
	opts.MaxModelPoints = 12
	opts.HyperEvery = 5
	res := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	if res.BestY > 0.05 {
		t.Fatalf("BestY = %v with capped model; want < 0.05", res.BestY)
	}
}

func TestContextIndexCountsInitSteps(t *testing.T) {
	// Problem.Context documents "counting every evaluation including warm
	// start": with k injected Init steps, the first fresh evaluation must be
	// iteration k, not 0 — otherwise a warm-started online session replays
	// the data-size schedule from the beginning.
	init := []Step{
		{X: []float64{0.1}, Ctx: []float64{0}, Y: 1},
		{X: []float64{0.2}, Ctx: []float64{1}, Y: 2},
		{X: []float64{0.3}, Ctx: []float64{2}, Y: 3},
	}
	var seen []int
	p := Problem{
		Dim:  1,
		Eval: sphere([]float64{0.5}),
		Context: func(it int) []float64 {
			seen = append(seen, it)
			return []float64{float64(it)}
		},
	}
	opts := defaultOptions()
	opts.InitPoints = 2
	opts.MaxIter = 6
	opts.EIStopFrac = 0
	opts.Seed = 10
	opts.Init = init
	res := Minimize(p, opts)
	if res.Evals != 6 {
		t.Fatalf("Evals = %d; want 6", res.Evals)
	}
	for i, s := range res.History[len(init):] {
		want := float64(len(init) + i)
		if len(s.Ctx) != 1 || s.Ctx[0] != want {
			t.Fatalf("fresh evaluation %d got ctx %v; want [%v]", i, s.Ctx, want)
		}
	}
	for _, it := range seen {
		if it < len(init) {
			t.Fatalf("context index %d overlaps the injected Init steps", it)
		}
	}
}

func TestIncrementalModelsMatchRefit(t *testing.T) {
	// HyperEvery > 1 now keeps live GPs and appends observations
	// incrementally. Because the extended factor matches a fresh
	// factorization to rounding error, the run must still optimize and stay
	// deterministic.
	obj := sphere([]float64{0.25, 0.75})
	opts := defaultOptions()
	opts.MaxIter = 30
	opts.EIStopFrac = 0
	opts.Seed = 11
	opts.HyperEvery = 5
	a := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	b := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	if a.BestY > 0.02 {
		t.Fatalf("incremental run BestY = %v; want < 0.02", a.BestY)
	}
	if a.BestY != b.BestY || a.Evals != b.Evals {
		t.Fatalf("incremental runs diverged: %v/%d vs %v/%d", a.BestY, a.Evals, b.BestY, b.Evals)
	}
	for i := range a.History {
		if a.History[i].Y != b.History[i].Y {
			t.Fatalf("history diverged at %d", i)
		}
	}
}

func TestEvalBatchMatchesSerial(t *testing.T) {
	// A batch evaluator that simply loops the serial objective must leave
	// the optimizer trajectory untouched: same history, same best, same EI
	// values. This is the contract core's parallel sample collection relies
	// on — the worker count only changes wall-clock time.
	obj := func(x, ctx []float64) float64 {
		d0, d1 := x[0]-0.3, x[1]-0.7
		return d0*d0 + d1*d1 + 0.1*x[0]*x[1] + 0.01*ctx[0]
	}
	// An iteration-dependent context: the batch path must hand EvalBatch the
	// same per-iteration contexts the serial loop computes right before each
	// Eval (a context that depends on anything but the iteration index would
	// be mislabeled by the precompute).
	ctxFn := func(it int) []float64 { return []float64{float64(it)} }
	opts := defaultOptions()
	opts.MaxIter = 14
	opts.InitPoints = 6
	opts.EIStopFrac = 0
	opts.Seed = 12
	serial := Minimize(Problem{Dim: 2, Eval: obj, Context: ctxFn}, opts)

	batched := opts
	batched.EvalBatch = func(xs, ctxs [][]float64) []float64 {
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = obj(xs[i], ctxs[i])
		}
		return ys
	}
	par := Minimize(Problem{Dim: 2, Eval: obj, Context: ctxFn}, batched)

	if len(serial.History) != len(par.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(serial.History), len(par.History))
	}
	for i := range serial.History {
		a, b := serial.History[i], par.History[i]
		if a.Y != b.Y || a.EI != b.EI {
			t.Fatalf("step %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("step %d decision diverged", i)
			}
		}
		if len(a.Ctx) != 1 || len(b.Ctx) != 1 || a.Ctx[0] != b.Ctx[0] || a.Ctx[0] != float64(i) {
			t.Fatalf("step %d context diverged: %v vs %v (want [%d])", i, a.Ctx, b.Ctx, i)
		}
	}
	if serial.BestY != par.BestY {
		t.Fatalf("best diverged: %v vs %v", serial.BestY, par.BestY)
	}
}

func TestEvalBatchShortReturnStops(t *testing.T) {
	// A batch evaluator that returns a prefix (evaluation cut short) must
	// leave a valid partial result rather than panicking or inventing steps.
	evals := 0
	obj := func(x, ctx []float64) float64 { evals++; return x[0] }
	opts := defaultOptions()
	opts.InitPoints = 8
	opts.MaxIter = 8
	opts.Seed = 3
	stopNow := false
	opts.Stop = func() bool { return stopNow }
	opts.EvalBatch = func(xs, ctxs [][]float64) []float64 {
		ys := make([]float64, 3) // only 3 of 8 completed
		for i := range ys {
			ys[i] = obj(xs[i], ctxs[i])
		}
		stopNow = true
		return ys
	}
	res := Minimize(Problem{Dim: 1, Eval: obj}, opts)
	if res.Evals != 3 || len(res.History) != 3 {
		t.Fatalf("Evals=%d history=%d; want 3 each", res.Evals, len(res.History))
	}
	if evals != 3 {
		t.Fatalf("objective evaluated %d times, want 3", evals)
	}
}

// TestExpectedImprovementNegativeVariance is the regression test for the
// NaN leak: PredictBatch-style variances can come out as tiny negatives
// from floating-point cancellation, and math.Sqrt of one is a NaN that
// sails past the sigma guard and poisons the whole EI average. The clamp
// must treat them exactly like zero variance.
func TestExpectedImprovementNegativeVariance(t *testing.T) {
	for _, v := range []float64{0, -0.0, -1e-300, -1e-18, -1e-12} {
		got := expectedImprovement(1.0, v, 2.0) // mu below best: certain improvement
		if math.IsNaN(got) {
			t.Fatalf("EI(v=%g) is NaN", v)
		}
		if got != 1.0 {
			t.Fatalf("EI(v=%g) = %v; want exact improvement 1.0", v, got)
		}
		if got := expectedImprovement(3.0, v, 2.0); got != 0 {
			t.Fatalf("EI above best with v=%g = %v; want 0", v, got)
		}
	}
	// A NaN from a single candidate must not be able to win the argmax
	// either way — EI of healthy candidates stays comparable.
	if ei := expectedImprovement(1.5, 0.25, 2.0); math.IsNaN(ei) || ei <= 0 {
		t.Fatalf("healthy EI = %v", ei)
	}
}

// TestMinimizeWorkersDeterministic: the Workers knob fans the MCMC chains of
// every hyperparameter resample over a pool, and must not change a single
// step of the trajectory.
func TestMinimizeWorkersDeterministic(t *testing.T) {
	obj := sphere([]float64{0.35, 0.65})
	base := defaultOptions()
	base.MaxIter = 18
	base.EIStopFrac = 0
	base.Seed = 21
	base.Workers = 1
	want := Minimize(Problem{Dim: 2, Eval: obj}, base)
	for _, workers := range []int{2, 4, 0} {
		opts := base
		opts.Workers = workers
		got := Minimize(Problem{Dim: 2, Eval: obj}, opts)
		if got.BestY != want.BestY || got.Evals != want.Evals {
			t.Fatalf("workers=%d diverged: %v/%d vs %v/%d", workers, got.BestY, got.Evals, want.BestY, want.Evals)
		}
		for i := range want.History {
			if got.History[i].Y != want.History[i].Y || got.History[i].EI != want.History[i].EI {
				t.Fatalf("workers=%d history diverged at %d", workers, i)
			}
		}
	}
}

// TestSeedTrajectoryPinned pins the optimizer trajectory for one seed: the
// stratified (Latin-Hypercube) EI candidate pool and the multi-chain
// hyperparameter sampler are deliberate behavior changes, and this golden
// value catches any future accidental one. Regenerate the constant if the
// proposal scheme changes on purpose.
func TestSeedTrajectoryPinned(t *testing.T) {
	obj := sphere([]float64{0.3, 0.7})
	opts := defaultOptions()
	opts.MaxIter = 16
	opts.EIStopFrac = 0
	opts.Seed = 5
	res := Minimize(Problem{Dim: 2, Eval: obj}, opts)
	const wantBestY = 9.6597224023117392e-06
	if res.Evals != 16 {
		t.Fatalf("Evals = %d; want 16", res.Evals)
	}
	if math.Abs(res.BestY-wantBestY) > 1e-12 {
		t.Fatalf("pinned trajectory moved: BestY = %.17g, want %.17g", res.BestY, wantBestY)
	}
}

// eiRound builds one EI round's inputs: k models fitted on one TrainSet under
// different hyperparameters (the posterior samples of a resample), a
// candidate pool with the context column appended, and the incumbent's
// objective (the smallest training target).
func eiRound(t testing.TB, n, k, cands int, rng *rand.Rand) ([]*gp.GP, [][]float64, float64) {
	t.Helper()
	const dim = 8
	xs := make([][]float64, n)
	ys := make([]float64, n)
	best := math.Inf(1)
	for i := range xs {
		xs[i] = append(randomPoint(dim, rng), 0.3)
		ys[i] = sphere(make([]float64, dim))(xs[i][:dim], nil) + rng.NormFloat64()*0.01
		best = min(best, ys[i])
	}
	ts, err := gp.NewTrainSet(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	var models []*gp.GP
	for i := 0; i < k; i++ {
		h := gp.DefaultHyper()
		h.LogLen += 0.2 * float64(i)
		h.LogSignal -= 0.1 * float64(i)
		m, err := ts.Fit(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	pool := make([][]float64, cands)
	for i := range pool {
		pool[i] = append(randomPoint(dim, rng), 0.3)
	}
	return models, pool, best
}

// TestScoreEISteadyStateAllocs pins the scoring step of an EI round at the
// two shapes core runs (five models, the stratified candidates plus the
// incumbent's neighbourhood) on a warm workspace: the bounded argmax
// allocates nothing — no score vector, no chunk buffer regrown, and on the
// one processor AllocsPerRun measures at no closure for the row passes.
func TestScoreEISteadyStateAllocs(t *testing.T) {
	for _, sh := range proposeShapes {
		rng := rand.New(rand.NewSource(22))
		models, pool, best := eiRound(t, sh.n, 5, sh.cands+refinePoints, rng)
		var ws eiWorkspace
		ws.argmax(models, pool, refinePoints, best) // grow the buffers
		if allocs := testing.AllocsPerRun(10, func() { ws.argmax(models, pool, refinePoints, best) }); allocs != 0 {
			t.Fatalf("n=%d: EI scoring allocates %.0f objects per round on a warm workspace; want 0", sh.n, allocs)
		}
	}
}
