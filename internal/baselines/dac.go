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
	// sizes around the target (DAC's datasize-awareness), each a model row
	// of one array: the encoded configuration and the data size in TB.
	sizes := []float64{targetGB * 0.5, targetGB, targetGB * 1.5}
	w := space.Dim() + 1
	flat := make([]float64, d.TrainRuns*w)
	xs := make([][]float64, d.TrainRuns)
	ys := make([]float64, d.TrainRuns)
	var confs []conf.Config
	var obs []float64
	for i := range xs {
		c := search.Random(rng)
		gb := sizes[i%len(sizes)]
		sec := b.runAt(c, gb)
		xs[i] = flat[i*w : (i+1)*w]
		space.EncodeInto(xs[i][:w-1], c)
		xs[i][w-1] = gb / 1024
		ys[i] = sec
		if gb == targetGB {
			confs = append(confs, c)
			obs = append(obs, sec)
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
	// score draws no random number and the elite carry theirs forward. A
	// generation is bred from pop into next, two populations of rows that
	// swap after each generation, and every genome is decoded into one
	// scratch configuration to be scored.
	dim := search.Dim()
	pop, next := population(d.Population, dim), population(d.Population, dim)
	fitness := make([]float64, len(pop))
	nextFitness := make([]float64, len(pop))
	scratch := make(conf.Config, conf.NumParams)
	score := func(g []float64) float64 {
		search.DecodeInto(scratch, g)
		return predict(scratch)
	}
	for i := range pop {
		copy(pop[i], search.Encode(search.Random(rng)))
		fitness[i] = score(pop[i])
	}
	for g := 0; g < d.Generations; g++ {
		idx := argsort(fitness)
		elite := len(pop) / 4
		for i := 0; i < elite; i++ {
			copy(next[i], pop[idx[i]])
			nextFitness[i] = fitness[idx[i]]
		}
		for n := elite; n < len(next); n++ {
			pa := pop[idx[rng.Intn(elite)]]
			pb := pop[idx[rng.Intn(len(pop)/2)]]
			child := next[n]
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
			nextFitness[n] = score(child)
		}
		pop, next = next, pop
		fitness, nextFitness = nextFitness, fitness
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

// population returns n rows of dim values over one array.
func population(n, dim int) [][]float64 {
	flat := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim]
	}
	return rows
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
