package baselines

import (
	"math/rand"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// GBORL reproduces the guided-Bayesian-optimization + RL tuner for
// memory-based analytics: an analytical model of Spark's unified memory
// manager proposes settings for the memory parameters (the white-box
// "guided" part), and an ε-greedy reinforcement-learning hill climber tunes
// the remaining parameters one action at a time. The paper observes that
// GBO-RL "only considers memory and the analytical model is inaccurate" —
// reproduced here by the guidance touching memory parameters only and by
// the hill climber's slow per-action progress.
type GBORL struct {
	// MemProbes is the number of guided memory-configuration probes
	// (default 24).
	MemProbes int
	// RLSteps is the ε-greedy hill-climbing budget (default 200).
	RLSteps int
	// Restrict, when non-nil, limits the RL hill climber to the given
	// subspace (the Figure 21 IICP hybrid); the memory-guidance stage still
	// reasons over the full memory parameters.
	Restrict SearchSpace
}

// gborlEpsilon is the hill climber's exploration probability.
const gborlEpsilon = 0.25

// NewGBORL returns GBO-RL with its published-shape defaults.
func NewGBORL() *GBORL { return &GBORL{MemProbes: 24, RLSteps: 200} }

// Name implements Tuner.
func (g *GBORL) Name() string { return "GBO-RL" }

// memoryParams are the parameters GBO-RL's analytical model reasons about.
var memoryParams = []int{
	conf.PExecutorMemory, conf.PExecutorMemoryOverhead, conf.PMemoryFraction,
	conf.PMemoryStorageFraction, conf.POffHeapEnabled, conf.POffHeapSize,
	conf.PExecutorCores,
}

// Tune implements Tuner.
func (g *GBORL) Tune(r runner.Runner, app *sparksim.Application, targetGB float64, seed int64) (*Report, error) {
	space := r.Space()
	rng := rand.New(rand.NewSource(seed))
	b := &budgeted{r: r, app: app, gb: targetGB, rep: &Report{Tuner: g.Name()}}

	// Stage 1 — analytical memory guidance: the white-box model predicts
	// that the per-task execution memory should cover the expected working
	// set; it enumerates heap/off-heap splits and fractions around that
	// prediction and probes them on the cluster.
	best := space.Default()
	bestSec := b.run(best)
	probe := make(conf.Config, conf.NumParams)
	for i := 0; i < g.MemProbes; i++ {
		copy(probe, best)
		for _, j := range memoryParams {
			r := space.RangeOf(j)
			// The model prefers large heaps, low storage fractions and
			// enough off-heap to shield the collector; its inaccuracy is a
			// uniform draw biased toward that region.
			bias := 0.6 + 0.4*rng.Float64()
			if j == conf.PMemoryStorageFraction {
				bias = 1 - bias
			}
			probe[j] = r.Lo + bias*r.Width()
		}
		c := space.Repair(probe)
		if sec := b.run(c); sec < bestSec {
			bestSec = sec
			best = c
		}
	}

	// Stage 2 — ε-greedy RL over single-parameter actions. An exploiting
	// candidate is built in scratch storage; the state and the best keep
	// copies of the candidates that improve them.
	var search SearchSpace = space
	if g.Restrict != nil {
		search = g.Restrict
	}
	cur := search.Encode(best)
	curSec := bestSec
	candX := make([]float64, len(cur))
	nudged := make(conf.Config, conf.NumParams)
	for step := 0; step < g.RLSteps; step++ {
		cand := nudged
		if rng.Float64() < gborlEpsilon {
			cand = search.Random(rng) // explore
			copy(candX, search.Encode(cand))
		} else {
			// Exploit: nudge one random free dimension of the current state.
			copy(candX, cur)
			j := rng.Intn(len(candX))
			candX[j] += (rng.Float64() - 0.5) * 0.4
			if candX[j] < 0 {
				candX[j] = 0
			}
			if candX[j] > 1 {
				candX[j] = 1
			}
			search.DecodeInto(cand, candX)
		}
		sec := b.run(cand)
		if sec < curSec {
			copy(cur, candX)
			curSec = sec
		}
		if sec < bestSec {
			best, bestSec = cand.Clone(), sec
		}
	}
	return b.finish(best)
}
