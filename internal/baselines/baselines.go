// Package baselines reimplements the four state-of-the-art tuners LOCAT is
// evaluated against (paper Sections 4–5), at the algorithm level:
//
//   - Tuneful (Fekry et al. 2020): one-at-a-time significance analysis to
//     find an influential-parameter subspace, then Gaussian-process
//     Bayesian optimization inside it.
//   - DAC (Yu et al. 2018): datasize-aware modeling — a large random
//     training set fits a regression-tree ensemble (GBRT stands in for
//     DAC's hierarchical tree models), then a genetic algorithm searches
//     the model, and the top candidates are validated on the cluster.
//   - GBO-RL (Kunjir & Babu 2020): a white-box analytical model of Spark's
//     memory management guides the memory parameters, and a
//     reinforcement-learning-style ε-greedy hill climber tunes the rest.
//   - QTune (Li et al. 2018): deep-RL query-aware tuning; reproduced as a
//     cross-entropy-method policy search over the configuration space (the
//     continuous-action DDPG update is replaced by CEM's Gaussian policy
//     refit, which preserves the sample cost and convergence behaviour).
//
// All baselines run the full application for every sample (none of them has
// QCSA), tune at a single data size (none has DAGP), and search the full
// 38-parameter space or their own reduced space (none has IICP). Their
// simulated optimization overheads and tuned latencies are what the paper's
// Figures 2, 11–14 and 20 compare.
package baselines

import (
	"errors"
	"math/rand"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// SearchSpace is the slice of the configuration space a tuner explores.
// *conf.Space (the full 38 parameters) and *conf.Subspace (an
// important-parameter restriction, used by the Figure 21 hybrids that graft
// LOCAT's IICP onto the baselines) both implement it.
type SearchSpace interface {
	// Dim is the number of free dimensions.
	Dim() int
	// Decode expands a unit-cube point into a valid full configuration.
	Decode(u []float64) conf.Config
	// DecodeInto is Decode writing into dst, a full-length configuration.
	DecodeInto(dst conf.Config, u []float64)
	// Encode projects a configuration onto the free dimensions.
	Encode(c conf.Config) []float64
	// Random draws a valid configuration uniformly.
	Random(rng *rand.Rand) conf.Config
}

// Report is the outcome of one baseline tuning run.
type Report struct {
	// Tuner is the baseline's name.
	Tuner string
	// Best is the chosen configuration.
	Best conf.Config
	// TunedSec is the noiseless full-application latency under Best at the
	// target data size.
	TunedSec float64
	// OverheadSec is the total simulated cluster time spent tuning.
	OverheadSec float64
	// Runs is the number of full-application executions performed.
	Runs int
}

// Tuner is the common interface of all baseline tuners.
type Tuner interface {
	// Name returns the paper's name for the tuner.
	Name() string
	// Tune searches for a configuration minimizing the application latency
	// at targetGB on the given execution backend (a *sparksim.Simulator
	// satisfies runner.Runner directly).
	Tune(r runner.Runner, app *sparksim.Application, targetGB float64, seed int64) (*Report, error)
}

// All returns fresh instances of the four SOTA baselines in the paper's
// order: Tuneful, DAC, GBO-RL, QTune.
func All() []Tuner {
	return []Tuner{NewTuneful(), NewDAC(), NewGBORL(), NewQTune()}
}

// budgeted tracks execution accounting shared by all baselines. Baselines
// read a run's total only, so every run's per-query results go to one
// buffer the session reuses.
type budgeted struct {
	r   runner.Runner
	app *sparksim.Application
	gb  float64
	rep *Report
	qs  []runner.QueryResult
}

// run executes the full application once at the target size and updates
// the accounting.
func (b *budgeted) run(c conf.Config) float64 { return b.runAt(c, b.gb) }

// runAt is run at data size gb. It claims the run index RunApp would.
func (b *budgeted) runAt(c conf.Config, gb float64) float64 {
	r := b.r.RunAppAt(b.r.ReserveRuns(1), b.app, c, gb, b.qs)
	b.qs = r.Queries
	b.rep.OverheadSec += r.Sec
	b.rep.Runs++
	return r.Sec
}

// finish fills the final report fields.
func (b *budgeted) finish(best conf.Config) (*Report, error) {
	if best == nil {
		return nil, errors.New("baselines: tuner produced no configuration")
	}
	b.rep.Best = best
	b.rep.TunedSec = b.r.NoiselessAppTime(b.app, best, b.gb)
	return b.rep, nil
}
