package bo

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/gp"
)

// scoreEI is the full EI-MCMC scoring the bounded argmax replaced, kept as
// its oracle: every candidate's posterior under every model (PredictBatch,
// Predict's bits), EI summed in model order from zero and averaged.
func scoreEI(models []*gp.GP, xin [][]float64, best float64) []float64 {
	out := make([]float64, len(xin))
	for _, m := range models {
		mus, vars := m.PredictBatch(xin, nil)
		for i := range out {
			out[i] += expectedImprovement(mus[i], vars[i], best)
		}
	}
	for i := range out {
		out[i] /= float64(len(models))
	}
	return out
}

// fullArgmax is the argmax proposeEI took over scoreEI: the first strict
// maximum, (-1, -Inf) when every score is NaN.
func fullArgmax(scores []float64) (int, float64) {
	bestI, bestEI := -1, math.Inf(-1)
	for i, ei := range scores {
		if ei > bestEI {
			bestI, bestEI = i, ei
		}
	}
	return bestI, bestEI
}

// eiBounds is each candidate's upper bound as the argmax takes it: the EI
// at every model's MaxVariance, averaged.
func eiBounds(models []*gp.GP, xin [][]float64, best float64) []float64 {
	out := make([]float64, len(xin))
	for _, m := range models {
		mus, _ := m.PredictBatch(xin, nil)
		for i := range out {
			out[i] += expectedImprovement(mus[i], m.MaxVariance(), best)
		}
	}
	for i := range out {
		out[i] /= float64(len(models))
	}
	return out
}

// randomRound is one EI round of random shape: 1–6 models under random
// hyperparameters on one TrainSet of 1–70 rows, targets at one of three
// scales (so the output standard deviation is below and above 1), a pool of
// 1–464 candidates with or without 64 refinement rows near the incumbent,
// and a few candidates copied over others (exact ties).
func randomRound(t *testing.T, rng *rand.Rand) (models []*gp.GP, pool [][]float64, refine int, best float64) {
	t.Helper()
	dim := 1 + rng.Intn(8)
	n := 1 + rng.Intn(70)
	scale := []float64{0.01, 1, 50}[rng.Intn(3)]
	xs := make([][]float64, n)
	ys := make([]float64, n)
	best = math.Inf(1)
	var incumbent []float64
	for i := range xs {
		xs[i] = append(randomPoint(dim, rng), 0.3)
		ys[i] = scale * (pinObjective(xs[i][:dim], nil) + 0.05*rng.NormFloat64())
		if ys[i] < best {
			best, incumbent = ys[i], xs[i]
		}
	}
	ts, err := gp.NewTrainSet(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1 + rng.Intn(6); len(models) < k; {
		h := gp.Hyper{
			LogLen:    math.Log(0.05 + rng.Float64()),
			LogSignal: 2*rng.Float64() - 1,
			LogNoise:  math.Log(0.01 + 0.3*rng.Float64()),
		}
		if m, err := ts.Fit(h, nil); err == nil {
			models = append(models, m)
		}
	}
	cands := []int{1, 5, 63, 64, 65, 200, 400}[rng.Intn(7)]
	if rng.Intn(3) > 0 {
		refine = refinePoints
	}
	for i := 0; i < cands+refine; i++ {
		x := randomPoint(dim, rng)
		if i >= cands {
			for j := range x {
				x[j] = clamp01(incumbent[j] + 0.05*rng.NormFloat64())
			}
		}
		pool = append(pool, append(x, 0.3))
	}
	for d := rng.Intn(6); d > 0; d-- {
		copy(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	}
	return models, pool, refine, best
}

// TestBoundedArgmaxMatchesFullScoring: the bounded argmax returns the full
// scoring's winner and its EI, the same index and the same bits, over random
// rounds (with duplicate candidates), rounds whose EIs are all zero, a round
// with a model on other training rows, pools shorter than one chunk, and
// rounds where rounding puts a candidate's EI above its bound. One workspace
// serves every round, as it serves a Minimize call.
func TestBoundedArgmaxMatchesFullScoring(t *testing.T) {
	var ws eiWorkspace
	check := func(t *testing.T, round int, models []*gp.GP, pool [][]float64, refine int, best float64) {
		t.Helper()
		wantI, wantEI := fullArgmax(scoreEI(models, pool, best))
		gotI, gotEI := ws.argmax(models, pool, refine, best)
		if gotI != wantI || math.Float64bits(gotEI) != math.Float64bits(wantEI) {
			t.Fatalf("round %d (%d models, %d candidates, %d refinement): bounded argmax %d (EI %v), full scoring %d (EI %v)",
				round, len(models), len(pool), refine, gotI, gotEI, wantI, wantEI)
		}
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		var prunable, total int
		for round := 0; round < 300; round++ {
			models, pool, refine, best := randomRound(t, rng)
			check(t, round, models, pool, refine, best)
			_, bestEI := fullArgmax(scoreEI(models, pool, best))
			for _, ub := range eiBounds(models, pool, best) {
				if ub+boundSlack(ub, 0) < bestEI {
					prunable++
				}
			}
			total += len(pool)
		}
		// The bound must exclude candidates in these rounds, or they test
		// no pruning at all.
		if prunable*4 < total {
			t.Fatalf("the bound excludes %d of %d candidates; the rounds exercise too little pruning", prunable, total)
		}
	})

	t.Run("all_zero", func(t *testing.T) {
		// An incumbent far below every mean: every EI underflows to zero,
		// nothing can be excluded, and the lowest index wins.
		rng := rand.New(rand.NewSource(32))
		for round := 0; round < 20; round++ {
			models, pool, refine, best := randomRound(t, rng)
			best -= 1e6
			if scores := scoreEI(models, pool, best); scores[0] != 0 {
				t.Fatalf("round %d: EI %v, want 0", round, scores[0])
			}
			check(t, round, models, pool, refine, best)
		}
	})

	t.Run("mismatched_model", func(t *testing.T) {
		// A model fitted on other rows in the middle of the round measures
		// its own distances; the models after it are back on the first's.
		rng := rand.New(rand.NewSource(21))
		models, pool, best := eiRound(t, 40, 4, 130, rng)
		strangers, _, _ := eiRound(t, 40, 1, 0, rng) // same size, other rows
		models = []*gp.GP{models[0], models[1], strangers[0], models[2], models[3]}
		for round, refine := range []int{0, 64} {
			check(t, round, models, pool, refine, best)
			check(t, round, models[2:3], pool, refine, best)
		}
	})

	t.Run("short_pool", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		models, pool, best := eiRound(t, 25, 3, 70, rng)
		for round, sz := range [][2]int{{1, 0}, {5, 0}, {5, 3}, {63, 0}, {64, 0}, {65, 64}, {10, 10}} {
			check(t, round, models, pool[:sz[0]], sz[1], best)
		}
	})

	t.Run("rounding_ties", func(t *testing.T) {
		// Every candidate is one point far from the training rows, whose
		// posterior variance is within about 1e-13 of the prior, and 0 < z
		// < 3, where EI hardly moves with the variance: rounding can put
		// its EI at that variance above the EI at MaxVariance. The
		// refinement rows are solved first and set the round's best; an
		// argmax that dropped a candidate whose bound fell below that best
		// would hand the round to a refinement row instead of index 0.
		xs := [][]float64{{0}, {0.05}, {0.1}}
		ys := []float64{1, 1.3, 0.8}
		g, err := gp.Fit(xs, ys, gp.Hyper{LogLen: math.Log(0.1), LogNoise: math.Log(0.1)})
		if err != nil {
			t.Fatal(err)
		}
		models := []*gp.GP{g}
		above := 0
		for round := 0; round < 400; round++ {
			x := []float64{0.67 + 0.002*float64(round%20)}
			best := 1.1 + 0.03*float64(round/20) // z from about 0.3 to 3
			pool := [][]float64{x, x, x, x, x}
			mu, v := g.Predict(x)
			if expectedImprovement(mu, v, best) > expectedImprovement(mu, g.MaxVariance(), best) {
				above++
			}
			check(t, round, models, pool, 2, best)
		}
		if above == 0 {
			t.Fatal("no round put an EI above its bound; the rounds no longer test the margin")
		}
		t.Logf("%d of 400 rounds put the EI above its bound", above)
	})
}

// TestExpectedImprovementMonotoneInVariance is the soundness of the bound:
// for v1 ≤ v2, EI(μ,v1) ≤ EI(μ,v2) + boundSlack. It covers random μ and
// incumbents, z ≪ 0 where (best-μ)Φ(z) and σφ(z) cancel (relative error up
// to ε·z⁴) down to where φ(z) is subnormal, the σ < 1e-12 switch and the
// v < 0 clamp, with v1 from a few units in the last place to orders of
// magnitude below v2.
func TestExpectedImprovementMonotoneInVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for it := 0; it < 400000; it++ {
		v2 := math.Exp(10 * rng.NormFloat64())
		mu := 10 * rng.NormFloat64()
		var z float64
		switch it % 4 {
		case 0:
			z = 5 * rng.NormFloat64()
		case 1:
			z = -45 * rng.Float64() // cancellation, then subnormal φ(z)
		case 2:
			z = -36 - 3*rng.Float64() // where φ(z) turns subnormal
		default:
			z = 40 * rng.Float64()
		}
		best := mu + z*math.Sqrt(v2)
		var v1 float64
		switch it % 5 {
		case 0:
			v1 = math.Nextafter(v2, 0)
		case 1:
			v1 = v2 * (1 - math.Pow(10, -16*rng.Float64()))
		case 2:
			v1 = v2 * rng.Float64()
		case 3: // across the σ < 1e-12 switch
			v1 = 1e-24 * rng.Float64()
			v2 = 1e-24 * (1 + rng.Float64()*1e-6)
			best = mu + z*1e-12
		default: // the v < 0 clamp
			v1 = -1e-12 * rng.Float64()
		}
		a, b := expectedImprovement(mu, v1, best), expectedImprovement(mu, v2, best)
		if a > b+boundSlack(b, math.Sqrt(v2)) {
			t.Fatalf("μ=%v best=%v: EI(v1=%v) = %v above EI(v2=%v) = %v + slack", mu, best, v1, a, v2, b)
		}
	}
}
