package bo

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/stat"
)

// oldPool is the candidate assembly proposeEI ran before the pool moved into
// the workspace: an allocated Latin Hypercube, then 64 allocated refinement
// points around the incumbent.
func oldPool(incumbent []float64, dim, cands int, rng *rand.Rand) [][]float64 {
	pool := make([][]float64, 0, cands+64)
	pool = append(pool, stat.LatinHypercube(cands, dim, rng)...)
	if incumbent != nil {
		for i := 0; i < 64; i++ {
			x := make([]float64, dim)
			scale := 0.05
			if i%2 == 1 {
				scale = 0.15
			}
			for j := range x {
				x[j] = clamp01(incumbent[j] + rng.NormFloat64()*scale)
			}
			pool = append(pool, x)
		}
	}
	return pool
}

// TestFillPoolMatchesOldAssembly: the pool drawn into the workspace rows is
// the old pool point for point, with the context behind every point, and it
// leaves the generator where the old code left it.
func TestFillPoolMatchesOldAssembly(t *testing.T) {
	ctx := []float64{0.3, 0.7}
	for seed := int64(0); seed < 50; seed++ {
		for _, dim := range []int{1, 5, 38} {
			for _, withIncumbent := range []bool{false, true} {
				cands := 20 + int(seed)*3
				var incumbent []float64
				if withIncumbent {
					incumbent = randomPoint(dim, rand.New(rand.NewSource(seed+1000)))
				}
				oldRng, newRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := oldPool(incumbent, dim, cands, oldRng)
				ws := eiWorkspace{perm: make([]int, cands)}
				// A workspace that served a larger round first.
				fillPool(randomPoint(dim, newRng), dim, ctx, cands, rand.New(rand.NewSource(99)), &ws)
				newRng.Seed(seed)
				got := fillPool(incumbent, dim, ctx, cands, newRng, &ws)
				if len(got) != len(want) {
					t.Fatalf("seed %d dim %d: %d points, want %d", seed, dim, len(got), len(want))
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("seed %d dim %d point %d[%d]: %v, want %v", seed, dim, i, j, got[i][j], want[i][j])
						}
					}
					if got[i][dim] != ctx[0] || got[i][dim+1] != ctx[1] || len(got[i]) != dim+2 {
						t.Fatalf("seed %d dim %d point %d: context %v", seed, dim, i, got[i][dim:])
					}
				}
				if a, b := oldRng.Int63(), newRng.Int63(); a != b {
					t.Fatalf("seed %d dim %d: generator diverged after the pool", seed, dim)
				}
			}
		}
	}
}

// TestProposeEISteadyStateAllocs: a round on a warm workspace — pool draw,
// context, five models' bounded argmax at the two pool sizes core runs —
// allocates the returned copy of the winner and nothing else: no chunk
// buffer regrows, and on the one processor AllocsPerRun measures at no
// closure is built for the row passes.
func TestProposeEISteadyStateAllocs(t *testing.T) {
	for _, sh := range proposeShapes {
		rng := rand.New(rand.NewSource(23))
		models, _, best := eiRound(t, sh.n, 5, 0, rng)
		res := Result{BestX: randomPoint(8, rng), BestY: best}
		opts := Options{Candidates: sh.cands}
		ctx := []float64{0.3}
		ws := eiWorkspace{perm: make([]int, opts.Candidates)}
		proposeEI(models, res, 8, ctx, opts, rng, &ws) // grow the buffers
		allocs := testing.AllocsPerRun(10, func() {
			if x, _ := proposeEI(models, res, 8, ctx, opts, rng, &ws); len(x) != 8 {
				t.Fatal("no proposal")
			}
		})
		if allocs != 1 {
			t.Fatalf("n=%d: proposeEI allocates %.0f objects per round on a warm workspace; want 1", sh.n, allocs)
		}
	}
}

// TestModelFailureIsNotConvergence: one non-finite objective value poisons
// the output standardization, no model can score a candidate, and every step
// falls back to random search. That is a surrogate failure, not the EI stop
// rule firing: the run goes to MaxIter and does not report convergence.
func TestModelFailureIsNotConvergence(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		calls := 0
		p := Problem{Dim: 2, Eval: func(x, _ []float64) float64 {
			calls++
			if calls == 2 {
				return bad
			}
			return sphere([]float64{0.3, 0.7})(x, nil) + 1
		}}
		opts := defaultOptions()
		opts.MinIter, opts.MaxIter, opts.Seed = 3, 20, 1
		res := Minimize(p, opts)
		if res.StoppedEarly || res.Evals != opts.MaxIter {
			t.Fatalf("Eval returned %v once: StoppedEarly=%v after %d evaluations; want a full run of %d",
				bad, res.StoppedEarly, res.Evals, opts.MaxIter)
		}
	}
}

// TestMinimizeStaysInUnitCube: every point handed to Eval or EvalBatch lies in
// [0,1]^Dim, whatever the seed, the dimension, the context and the evaluator.
func TestMinimizeStaysInUnitCube(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		dim := 1 + int(seed)%38
		check := func(x []float64) {
			if len(x) != dim {
				t.Fatalf("seed %d: point of %d coordinates, want %d", seed, len(x), dim)
			}
			for _, v := range x {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("seed %d dim %d: coordinate %v outside [0,1]", seed, dim, v)
				}
			}
		}
		p := Problem{Dim: dim, Eval: func(x, ctx []float64) float64 {
			check(x)
			return pinObjective(x, ctx)
		}}
		if seed%2 == 1 {
			p.Context = func(it int) []float64 { return []float64{0.1 * float64(it%7), 0.5} }
		}
		opts := Options{InitPoints: 3, MaxIter: 9, MCMCSamples: 2, Candidates: 40, HyperEvery: 1 + int(seed)%3, Workers: 1, Seed: seed}
		if seed%4 >= 2 {
			opts.EvalBatch = func(xs, ctxs [][]float64) []float64 {
				ys := make([]float64, len(xs))
				for i, x := range xs {
					check(x)
					ys[i] = pinObjective(x, ctxs[i])
				}
				return ys
			}
		}
		if res := Minimize(p, opts); res.Evals != opts.MaxIter {
			t.Fatalf("seed %d: %d evaluations, want %d", seed, res.Evals, opts.MaxIter)
		}
	}
}
