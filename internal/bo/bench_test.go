package bo

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkScoreEI measures one EI-MCMC acquisition round at the shape the
// tuner runs it: 6 posterior-sample models over one training set, a pool of
// 576 candidates (512 stratified + 64 around the incumbent) with the
// data-size context appended, on a warm workspace. n=60 is where a cold
// session ends, n=128 a warm-started one. One distance pass serves all six
// models.
func BenchmarkScoreEI(b *testing.B) {
	for _, n := range []int{60, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			models, pool := eiRound(b, n, 6, 576, rand.New(rand.NewSource(7)))
			var ws eiWorkspace
			scoreEI(models, pool, 0, &ws) // warm the workspace buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scoreEI(models, pool, 0, &ws)
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
