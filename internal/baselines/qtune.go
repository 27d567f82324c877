package baselines

import (
	"math"
	"math/rand"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// QTune reproduces the query-aware deep-reinforcement-learning tuner. Its
// DDPG actor-critic is replaced by a cross-entropy-method policy search: a
// diagonal-Gaussian policy over the encoded configuration space is sampled
// episode by episode and refit to the elite of each generation. This keeps
// QTune's two defining evaluation properties — by far the largest sample
// count of the compared tuners (the policy needs many episodes to converge,
// paper Figure 2) and a strong final configuration (QTune has the best
// tuned latency among the baselines, Figures 13–14) — without a neural
// network (the package doc lists every substitution).
type QTune struct {
	// Generations and Episodes size the policy search
	// (defaults 40 × 16 = 640 runs).
	Generations int
	Episodes    int
	// Restrict, when non-nil, limits the policy to the given subspace (the
	// Figure 21 IICP hybrid).
	Restrict SearchSpace
}

// qtuneEliteFrac is the elite fraction refit each generation.
const qtuneEliteFrac = 0.25

// NewQTune returns QTune with its published-shape defaults.
func NewQTune() *QTune { return &QTune{Generations: 40, Episodes: 16} }

// Name implements Tuner.
func (q *QTune) Name() string { return "QTune" }

// Tune implements Tuner.
func (q *QTune) Tune(r runner.Runner, app *sparksim.Application, targetGB float64, seed int64) (*Report, error) {
	var search SearchSpace = r.Space()
	if q.Restrict != nil {
		search = q.Restrict
	}
	rng := rand.New(rand.NewSource(seed))
	b := &budgeted{r: r, app: app, gb: targetGB, rep: &Report{Tuner: q.Name()}}

	d := search.Dim()
	mean := make([]float64, d)
	sigma := make([]float64, d)
	for j := range mean {
		mean[j] = 0.5
		sigma[j] = 0.3
	}

	nElite := int(float64(q.Episodes) * qtuneEliteFrac)
	if nElite < 2 {
		nElite = 2
	}
	// A generation's episodes are rows of one array the search reuses, and
	// each is run through one scratch configuration.
	xs := population(q.Episodes, d)
	secs := make([]float64, q.Episodes)
	idx := make([]int, q.Episodes)
	c := make(conf.Config, conf.NumParams)
	for g := 0; g < q.Generations; g++ {
		for e, x := range xs {
			explore := rng.Float64() < 0.15 // DDPG-style exploration episodes
			for j := range x {
				if explore {
					x[j] = rng.Float64()
					continue
				}
				x[j] = clamp01(mean[j] + rng.NormFloat64()*sigma[j])
			}
			search.DecodeInto(c, x)
			secs[e] = b.run(c)
		}
		// Refit the policy to the elite episodes.
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < len(idx); i++ { // selection sort is fine at n=12
			m := i
			for k := i + 1; k < len(idx); k++ {
				if secs[idx[k]] < secs[idx[m]] {
					m = k
				}
			}
			idx[i], idx[m] = idx[m], idx[i]
		}
		for j := 0; j < d; j++ {
			var mu, v float64
			for i := 0; i < nElite; i++ {
				mu += xs[idx[i]][j]
			}
			mu /= float64(nElite)
			for i := 0; i < nElite; i++ {
				dd := xs[idx[i]][j] - mu
				v += dd * dd
			}
			v /= float64(nElite)
			// The actor is a weight-decayed function approximator: its
			// outputs are pulled toward the centre of the squashed action
			// range and never fully commit to extreme settings.
			mean[j] = 0.93*(0.6*mu+0.4*mean[j]) + 0.07*0.5
			sigma[j] = math.Max(0.10, 0.8*math.Sqrt(v)+0.2*sigma[j])
		}
	}
	// A DDPG actor's output is the policy's final recommendation, not the
	// luckiest episode of the replay buffer.
	return b.finish(search.Decode(mean))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
