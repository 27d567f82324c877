package bo

import (
	"fmt"
	"math/rand"
	"testing"
)

// proposeShapes are the EI rounds core runs, five posterior-sample models
// each: phase 1 ends near 30 observations with 400 stratified candidates,
// phase 2 near 60 with 800, both plus 64 around the incumbent.
var proposeShapes = []struct{ n, cands int }{{30, 400}, {60, 800}}

// BenchmarkProposeEI measures one EI-MCMC acquisition round at those shapes,
// on a warm workspace: the pool draw, the bounded argmax and the copy of the
// winner. How many candidates the bound excludes depends on the pool size
// and on the incumbent, here the smallest training target.
func BenchmarkProposeEI(b *testing.B) {
	for _, sh := range proposeShapes {
		b.Run(fmt.Sprintf("n=%d/c=%d", sh.n, sh.cands+refinePoints), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			models, _, best := eiRound(b, sh.n, 5, 0, rng)
			res := Result{BestX: randomPoint(8, rng), BestY: best}
			opts := Options{Candidates: sh.cands}
			ctx := []float64{0.3}
			ws := eiWorkspace{perm: make([]int, opts.Candidates)}
			proposeEI(models, res, 8, ctx, opts, rng, &ws) // warm the workspace buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proposeEI(models, res, 8, ctx, opts, rng, &ws)
			}
		})
	}
}

// BenchmarkMinimize is the whole iteration — propose, score, observe, append
// and every third one resample — on a closed-form 9-d objective with one
// context column: cold_n30 is a cold session's phase 1 (10 LHS points, 20
// guided), warm_init52 a warm session's phase 2 (52 injected observations, 3
// LHS points, 12 guided).
func BenchmarkMinimize(b *testing.B) {
	p := Problem{Dim: 9, Eval: pinObjective, Context: func(int) []float64 { return []float64{0.3} }}
	cold := Options{InitPoints: 10, MinIter: 30, MaxIter: 30, MCMCSamples: 6, HyperEvery: 3, Candidates: 400, Workers: 1, Seed: 11}
	warm := Options{InitPoints: 3, MinIter: 15, MaxIter: 15, MCMCSamples: 6, HyperEvery: 3, Candidates: 800, Workers: 1, Seed: 12}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 52; i++ {
		x := randomPoint(p.Dim, rng)
		warm.Init = append(warm.Init, Step{X: x, Ctx: []float64{0.3}, Y: pinObjective(x, []float64{0.3})})
	}
	for _, bc := range []struct {
		name string
		opts Options
	}{{"cold_n30", cold}, {"warm_init52", warm}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := Minimize(p, bc.opts); res.Evals != bc.opts.MaxIter {
					b.Fatalf("%d evaluations, want %d", res.Evals, bc.opts.MaxIter)
				}
			}
		})
	}
}
