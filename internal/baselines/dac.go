package baselines

import (
	"math"
	"math/rand"
	"sort"

	"locat/internal/conf"
	"locat/internal/ml"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// DAC reproduces the Datasize-Aware Configuration tuner: a large random
// training set (the expensive part the paper's Figure 2 shows) fits a
// tree-ensemble performance model with the data size as an input feature,
// a genetic algorithm searches the model for promising configurations, and
// the GA's elite are validated with real executions. GBRT stands in for
// DAC's hierarchical regression-tree stack (the package doc lists every
// substitution).
type DAC struct {
	// TrainRuns is the random training-sample budget (default 150).
	TrainRuns int
	// Generations and Population size the genetic search (defaults 30/40).
	Generations int
	Population  int
	// Validate is how many GA elite get real validation runs (default 12).
	Validate int
	// Restrict, when non-nil, limits training sampling and the genetic
	// search to the given subspace (the Figure 21 IICP hybrid).
	Restrict SearchSpace
}

// NewDAC returns DAC with its published-shape defaults.
func NewDAC() *DAC {
	return &DAC{TrainRuns: 150, Generations: 30, Population: 40, Validate: 10}
}

// Name implements Tuner.
func (d *DAC) Name() string { return "DAC" }

// Tune implements Tuner.
func (d *DAC) Tune(r runner.Runner, app *sparksim.Application, targetGB float64, seed int64) (*Report, error) {
	space := r.Space()
	var search SearchSpace = space
	if d.Restrict != nil {
		search = d.Restrict
	}
	rng := rand.New(rand.NewSource(seed))
	b := &budgeted{r: r, app: app, gb: targetGB, rep: &Report{Tuner: d.Name()}}

	// Training-sample collection: random configurations at a mix of data
	// sizes around the target (DAC's datasize-awareness).
	sizes := []float64{targetGB * 0.5, targetGB, targetGB * 1.5}
	var xs [][]float64
	var ys []float64
	var confs []conf.Config
	var obs []float64
	for i := 0; i < d.TrainRuns; i++ {
		c := search.Random(rng)
		gb := sizes[i%len(sizes)]
		res := r.RunApp(app, c, gb)
		b.rep.OverheadSec += res.Sec
		b.rep.Runs++
		row := append(space.Encode(c), gb/1024)
		xs = append(xs, row)
		ys = append(ys, res.Sec)
		if gb == targetGB {
			confs = append(confs, c)
			obs = append(obs, res.Sec)
		}
	}

	model := ml.NewGBRT(ml.GBRTOptions{Trees: 150, MaxDepth: 4})
	if err := model.Fit(xs, ys); err != nil {
		return nil, err
	}
	// One model row serves every GA candidate of the session.
	row := make([]float64, space.Dim()+1)
	row[space.Dim()] = targetGB / 1024
	predict := func(c conf.Config) float64 {
		space.EncodeInto(row[:space.Dim()], c)
		return model.Predict(row)
	}

	// Genetic search over the model (no cluster time consumed). Genomes are
	// encoded unit-cube vectors of the search space, each scored once: a
	// score draws no random number and the elite carry theirs forward.
	dim := search.Dim()
	pop := make([][]float64, d.Population)
	fitness := make([]float64, len(pop))
	score := func(g []float64) float64 { return predict(search.Decode(g)) }
	for i := range pop {
		pop[i] = search.Encode(search.Random(rng))
		fitness[i] = score(pop[i])
	}
	for g := 0; g < d.Generations; g++ {
		idx := argsort(fitness)
		elite := len(pop) / 4
		next := make([][]float64, 0, len(pop))
		nextFitness := make([]float64, 0, len(pop))
		for i := 0; i < elite; i++ {
			next = append(next, pop[idx[i]])
			nextFitness = append(nextFitness, fitness[idx[i]])
		}
		for len(next) < len(pop) {
			pa := pop[idx[rng.Intn(elite)]]
			pb := pop[idx[rng.Intn(len(pop)/2)]]
			child := make([]float64, dim)
			for j := range child {
				if rng.Intn(2) == 0 {
					child[j] = pa[j]
				} else {
					child[j] = pb[j]
				}
				if rng.Float64() < 0.4 {
					child[j] += rng.NormFloat64() * 0.08
					if child[j] < 0 {
						child[j] = 0
					}
					if child[j] > 1 {
						child[j] = 1
					}
				}
			}
			next = append(next, child)
			nextFitness = append(nextFitness, score(child))
		}
		pop, fitness = next, nextFitness
	}
	idx := argsort(fitness)

	// Real-cluster validation of the GA elite; the best observed training
	// sample competes too.
	best := confs[argmin(obs)]
	bestSec := obs[argmin(obs)]
	for i := 0; i < d.Validate && i < len(idx); i++ {
		c := search.Decode(pop[idx[i]])
		sec := b.run(c)
		if sec < bestSec {
			bestSec = sec
			best = c
		}
	}
	return b.finish(best)
}

func argsort(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

func argmin(xs []float64) int {
	best, bi := math.Inf(1), 0
	for i, v := range xs {
		if v < best {
			best, bi = v, i
		}
	}
	return bi
}
