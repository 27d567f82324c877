package bo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Every step of a Minimize history lies in the unit cube, whatever the
// dimension and seed, and whether or not the run is seeded with Init steps,
// sees a context or evaluates its warm start as a batch. The objectives are
// random quadratics whose minimiser often lies outside the cube, so EI keeps
// pressing against its faces. (TestMinimizeStaysInUnitCube checks the
// points handed to the evaluators, on one objective and without Init.)
func TestMinimizeHistoryInUnitCubeOnQuadratics(t *testing.T) {
	for _, d := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(d)))
			centre, weight := make([]float64, d), make([]float64, d)
			for j := range centre {
				centre[j] = -0.5 + 2*rng.Float64()
				weight[j] = 0.1 + rng.Float64()
			}
			f := func(x, ctx []float64) float64 {
				y := 1.0
				for j, v := range x {
					y += weight[j] * (v - centre[j]) * (v - centre[j])
				}
				if len(ctx) > 0 {
					y += 0.1 * ctx[0]
				}
				return y
			}
			for variant := 0; variant < 8; variant++ {
				withInit, withCtx, withBatch := variant&1 != 0, variant&2 != 0, variant&4 != 0
				t.Run(fmt.Sprintf("d%d/seed%d/init=%t,ctx=%t,batch=%t", d, seed, withInit, withCtx, withBatch), func(t *testing.T) {
					p := Problem{Dim: d, Eval: f}
					opts := Options{InitPoints: 3, MinIter: 4, MaxIter: 12, EIStopFrac: 0.01,
						MCMCSamples: 2, Candidates: 64, Seed: seed}
					if withCtx {
						p.Context = func(it int) []float64 { return []float64{float64(it % 3)} }
					}
					if withInit {
						for i := 0; i < 4; i++ {
							x := make([]float64, d)
							for j := range x {
								x[j] = rng.Float64()
							}
							var ctx []float64
							if withCtx {
								ctx = []float64{float64(i % 3)}
							}
							opts.Init = append(opts.Init, Step{X: x, Ctx: ctx, Y: f(x, ctx)})
						}
					}
					if withBatch {
						opts.EvalBatch = func(xs, ctxs [][]float64) []float64 {
							ys := make([]float64, len(xs))
							for i := range xs {
								ys[i] = f(xs[i], ctxs[i])
							}
							return ys
						}
					}
					res := Minimize(p, opts)
					if res.Evals == 0 {
						t.Fatal("no evaluations")
					}
					for i, s := range res.History {
						if len(s.X) != d {
							t.Fatalf("step %d has %d coordinates, want %d", i, len(s.X), d)
						}
						for j, v := range s.X {
							if !(v >= 0 && v <= 1) || math.IsNaN(v) {
								t.Fatalf("step %d coordinate %d = %v, outside [0, 1]", i, j, v)
							}
						}
					}
				})
			}
		}
	}
}
