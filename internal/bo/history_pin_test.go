package bo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// pinScenario is one Minimize call whose whole Result is pinned to the digest
// recorded at the commit before the loop moved into reused buffers.
type pinScenario struct {
	name  string
	dim   int
	ctx   bool // a one-column context that varies with the iteration
	batch bool // hand the warm-start block to EvalBatch
	init  int  // injected Init steps
	opts  Options
	want  string
}

var pinScenarios = []pinScenario{
	{name: "cold_hyper3", dim: 5, opts: Options{InitPoints: 4, MaxIter: 22, MCMCSamples: 4, Candidates: 200, HyperEvery: 3, Seed: 3},
		want: "09a8b1fe5c6f8ff4da38adb80ba6ff42a637a675883c774f5899eb6ace8e2ad2"},
	{name: "cold_hyper1_ctx", dim: 3, ctx: true, opts: Options{InitPoints: 3, MaxIter: 14, MCMCSamples: 3, Candidates: 150, HyperEvery: 1, Seed: 4},
		want: "ccd12dace101a611092cf1623f83a7efcafac4099daa91e0c6e3dd8eefc7a65d"},
	{name: "cold_batch_ctx", dim: 6, ctx: true, batch: true, opts: Options{InitPoints: 8, MaxIter: 20, MCMCSamples: 3, Candidates: 120, HyperEvery: 3, Seed: 5},
		want: "9a9a4a73e8b053698378b5cf3cd9058b22113eab9d8a888bbf02ef34c21504fc"},
	{name: "warm_init", dim: 8, ctx: true, init: 20, opts: Options{InitPoints: 3, MaxIter: 14, MCMCSamples: 5, Candidates: 300, HyperEvery: 3, Seed: 6},
		want: "d6949316047df6f0fba7553231e530eec3b82e891765c096a9fc51ebbe6df27c"},
	{name: "trim", dim: 4, init: 6, opts: Options{InitPoints: 5, MaxIter: 30, MCMCSamples: 3, Candidates: 100, HyperEvery: 4, MaxModelPoints: 12, Seed: 7},
		want: "857768da3dc198e57e5d4a6743e61a02182c47b148ab6c91930c59c5fe5b1ce6"},
	{name: "early_stop", dim: 2, opts: Options{InitPoints: 3, MinIter: 6, MaxIter: 40, EIStopFrac: 0.1, MCMCSamples: 3, Candidates: 100, HyperEvery: 3, Seed: 8},
		want: "c51df808ae93cd0ad4dd6f36935a28848af4de210f4e6bb7738ed1d75a216924"},
	{name: "dim38", dim: 38, ctx: true, opts: Options{InitPoints: 6, MaxIter: 16, MCMCSamples: 3, Candidates: 150, HyperEvery: 3, Seed: 9},
		want: "2bb0161e71351fe838154ae59fcb3b87f58b34ca97be0dc41a017efcdf4ea3ee"},
}

// pinObjective is closed-form and depends on the context, so a misplaced
// context column shows in every later proposal.
func pinObjective(x, ctx []float64) float64 {
	y := 1.0
	for j, v := range x {
		y += (v - 0.2 - 0.015*float64(j)) * (v - 0.2 - 0.015*float64(j)) * float64(j%5+1)
	}
	for _, c := range ctx {
		y *= 1 + c
	}
	return y
}

func (sc pinScenario) run(workers int) Result {
	p := Problem{Dim: sc.dim, Eval: pinObjective}
	if sc.ctx {
		p.Context = func(it int) []float64 { return []float64{0.25 + 0.05*float64(it%4)} }
	}
	opts := sc.opts
	opts.Workers = workers
	if sc.batch {
		opts.EvalBatch = func(xs, ctxs [][]float64) []float64 {
			ys := make([]float64, len(xs))
			for i := range xs {
				ys[i] = pinObjective(xs[i], ctxs[i])
			}
			return ys
		}
	}
	rng := rand.New(rand.NewSource(sc.opts.Seed + 100))
	for i := 0; i < sc.init; i++ {
		s := Step{X: randomPoint(sc.dim, rng)}
		if sc.ctx {
			s.Ctx = []float64{0.3}
		}
		s.Y = pinObjective(s.X, s.Ctx)
		opts.Init = append(opts.Init, s)
	}
	return Minimize(p, opts)
}

// resultDigest hashes every bit of a Result: equal digests are equal results.
func resultDigest(res Result) string {
	h := sha256.New()
	num := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	vec := func(xs []float64) {
		num(float64(len(xs)))
		for _, v := range xs {
			num(v)
		}
	}
	vec(res.BestX)
	num(res.BestY)
	num(float64(res.Evals))
	if res.StoppedEarly {
		num(1)
	}
	for _, s := range res.History {
		vec(s.X)
		vec(s.Ctx)
		num(s.Y)
		num(s.EI)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMinimizeHistoriesMatchParent: cold, warm-Init, trimmed, batched and
// early-stopped runs, with HyperEvery 1, 3 and 4, reproduce the parent
// commit's results bit for bit at 1, 2 and 4 workers.
func TestMinimizeHistoriesMatchParent(t *testing.T) {
	for _, sc := range pinScenarios {
		for _, workers := range []int{1, 2, 4} {
			if got := resultDigest(sc.run(workers)); got != sc.want {
				t.Errorf("%s workers=%d: digest %s, want %s", sc.name, workers, got, sc.want)
			}
		}
	}
}
