// Package dagp implements the Datasize-Aware Gaussian Process — the third of
// LOCAT's three techniques (paper Section 3.4). The execution time of an
// application is modeled as t = f(conf, ds) (equation 7): a GP over the
// encoded configuration vector with the input data size appended as an extra
// feature. Observations taken at different data sizes therefore train one
// shared surrogate, which is what lets LOCAT keep tuning online while the
// input size changes instead of re-tuning from scratch (the CherryPick
// limitation the paper calls out).
package dagp

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"locat/internal/gp"
)

// ScaleGB normalizes a data size in GB into the model's unit range.
// 1 TB maps to 1.0, keeping the datasize feature commensurate with the
// unit-cube configuration features.
const ScaleGB = 1024.0

// Ctx encodes a data size as the BO context vector appended to every model
// input.
func Ctx(dataGB float64) []float64 { return []float64{dataGB / ScaleGB} }

// Sample is one observation for direct model fitting.
type Sample struct {
	// X is the encoded configuration (unit cube).
	X []float64
	// DataGB is the input data size of the run.
	DataGB float64
	// Sec is the observed latency.
	Sec float64
}

// Model is a fitted datasize-aware GP usable for direct prediction —
// the experiment harness uses it to pick the best evaluated configuration
// for a target data size, and the ablations use it to quantify the value of
// the datasize feature.
type Model struct {
	g *gp.GP
}

// encode flattens samples into GP training data: configuration vector with
// the normalized data size appended, every row a row of one array.
func encode(samples []Sample) (xs [][]float64, ys []float64) {
	xs = make([][]float64, len(samples))
	ys = make([]float64, len(samples))
	n := 0
	for _, s := range samples {
		n += len(s.X) + 1
	}
	flat := make([]float64, 0, n)
	for i, s := range samples {
		at := len(flat)
		flat = append(append(flat, s.X...), s.DataGB/ScaleGB)
		xs[i] = flat[at:len(flat):len(flat)]
		ys[i] = s.Sec
	}
	return xs, ys
}

// FitWorkers trains the DAGP on the samples, marginalizing hyperparameters
// by picking the posterior sample with the highest marginal likelihood from a
// short MCMC run. workers bounds the goroutines used for that inference: the
// MCMC chains run on a worker pool over one shared distance cache
// (gp.TrainSet), which the candidate model fits then reuse. 0 selects
// GOMAXPROCS, 1 runs serially; the fitted model is identical for every
// worker count.
func FitWorkers(samples []Sample, rng *rand.Rand, workers int) (*Model, error) {
	return fit(new(gp.Workspace), samples, rng, workers)
}

// fit is FitWorkers in ws; the loser of each comparison is refitted in place.
func fit(ws *gp.Workspace, samples []Sample, rng *rand.Rand, workers int) (*Model, error) {
	if len(samples) < 2 {
		return nil, errors.New("dagp: need at least 2 samples")
	}
	xs, ys := encode(samples)
	ts, err := ws.TrainSet(xs, ys, workers)
	if err != nil {
		return nil, err
	}
	var best *gp.GP
	bestML, free := 0.0, 0 // free is the model the next sample is fitted in
	for _, h := range ws.SampleHyper(ts, 5, rng, workers) {
		m, err := ws.Fit(ts, free, h)
		if err != nil {
			continue
		}
		if ml := m.LogMarginalLikelihood(); best == nil || ml > bestML {
			best, bestML, free = m, ml, 1-free
		}
	}
	if best == nil {
		return nil, errors.New("dagp: no usable hyperparameter sample")
	}
	return &Model{g: best}, nil
}

// Append extends a fitted model with additional observations without
// refitting: each costs one O(n²) incremental Cholesky extension under the
// hyperparameters the model was fitted with (gp.AppendBatch). On error the
// model is unchanged and still usable.
func (m *Model) Append(samples ...Sample) error {
	xs, ys := encode(samples)
	return m.g.AppendBatch(xs, ys)
}

// FitTransferWorkers builds a DAGP for the warm-start path: hyperparameters
// are inferred on base — the prior observations a SelectTransfer call ranked,
// which dominate the training set — and the fresh samples then arrive as a
// batch append under those hyperparameters. The expensive part of a fit is
// the MCMC's repeated O(n³) refits; restricting it to the prior and
// extending incrementally keeps that cost independent of how many fresh
// runs the session accumulates. Falls back to a joint FitWorkers when base is
// too small to infer hyperparameters or the extension is numerically
// rejected. workers bounds the inference's goroutines as in FitWorkers.
func FitTransferWorkers(base, fresh []Sample, rng *rand.Rand, workers int) (*Model, error) {
	return FitIn(new(gp.Workspace), base, fresh, rng, workers)
}

// FitIn is FitTransferWorkers in ws, a joint FitWorkers without base; the
// model is valid until ws's next use.
func FitIn(ws *gp.Workspace, base, fresh []Sample, rng *rand.Rand, workers int) (*Model, error) {
	joint := func() (*Model, error) {
		all := make([]Sample, 0, len(base)+len(fresh))
		all = append(all, base...)
		all = append(all, fresh...)
		return fit(ws, all, rng, workers)
	}
	if len(fresh) == 0 {
		return fit(ws, base, rng, workers)
	}
	if len(base) < 2 {
		return joint()
	}
	m, err := fit(ws, base, rng, workers)
	if err != nil {
		return joint()
	}
	if err := m.Append(fresh...); err != nil {
		return joint()
	}
	return m, nil
}

// SelectTransfer picks at most max prior observations worth transferring to
// a session targeting targetGB and returns their indices into samples, most
// relevant first. Relevance combines two ranks: distance in log-datasize
// (the GP's datasize feature interpolates well between nearby sizes and
// poorly across decades) and observed latency (low-latency points carry the
// information the acquisition function needs around the optimum;
// high-latency points mostly teach the model what to avoid, which a few
// suffice for). The tuning service calls this before injecting
// history-store observations as a core.Prior, bounding both the GP's cubic
// fitting cost and the influence of far-away sizes.
func SelectTransfer(samples []Sample, targetGB float64, max int) []int {
	if max <= 0 || len(samples) <= max {
		out := make([]int, len(samples))
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Rank by log-size distance.
	sizeRank := make([]int, len(samples))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	logDist := func(i int) float64 {
		s := samples[i].DataGB
		if s <= 0 || targetGB <= 0 {
			return math.Inf(1)
		}
		return math.Abs(math.Log(s / targetGB))
	}
	sort.SliceStable(idx, func(a, b int) bool { return logDist(idx[a]) < logDist(idx[b]) })
	for r, i := range idx {
		sizeRank[i] = r
	}
	// Rank by latency.
	secRank := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return samples[idx[a]].Sec < samples[idx[b]].Sec })
	for r, i := range idx {
		secRank[i] = r
	}
	// Combined relevance: size proximity dominates, latency breaks ties and
	// pulls in near-optimal points from slightly farther sizes.
	for i := range idx {
		idx[i] = i
	}
	score := func(i int) int { return 2*sizeRank[i] + secRank[i] }
	sort.SliceStable(idx, func(a, b int) bool { return score(idx[a]) < score(idx[b]) })
	return append([]int(nil), idx[:max]...)
}

// Predict returns the posterior mean and variance of the latency of the
// encoded configuration x at the given data size (equation 10).
func (m *Model) Predict(x []float64, dataGB float64) (mean, variance float64) {
	in := make([]float64, 0, len(x)+1)
	in = append(in, x...)
	in = append(in, dataGB/ScaleGB)
	return m.g.Predict(in)
}

// PredictBatch returns the posterior mean latency of every encoded
// configuration at the given data size through gp.PredictMeans — row-parallel
// batch math with no variance solve, since only the means are wanted.
// Numerically identical to looping Predict. ws may be nil; when provided its
// buffers are reused and the returned slice is valid until the workspace's
// next use.
func (m *Model) PredictBatch(xs [][]float64, dataGB float64, ws *gp.PredictWorkspace) []float64 {
	if ws == nil {
		ws = &gp.PredictWorkspace{}
	}
	if len(xs) == 0 {
		return nil
	}
	in := ws.Inputs(len(xs), len(xs[0])+1)
	for i, x := range xs {
		copy(in[i], x)
		in[i][len(x)] = dataGB / ScaleGB
	}
	return m.g.PredictMeans(in, ws)
}
