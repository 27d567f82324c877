package runner

import (
	"math"
	"sync/atomic"
	"time"

	"locat/internal/conf"
)

// Run kinds reported to RunObservers.
const (
	// KindApp is a direct full-application execution.
	KindApp = "app"
	// KindBatch marks executions completed inside a RunBatch handed to an
	// outermost Observed; their wall time is the batch wall amortized over
	// its completed runs. Under any other layer (the service's checkpoint
	// Cache) Observed sees batch members one by one, as KindApp.
	KindBatch = "batch"
)

// RunObserver receives one record per completed execution: the kind, the
// host wall-clock seconds the call took (amortized for batch members) and
// the simulated cluster seconds the run consumed. Implementations must be
// safe for concurrent use — the batch pool completes runs on worker
// goroutines.
type RunObserver interface {
	ObserveRun(kind string, wallSec, clusterSec float64)
}

// Tally accumulates execution accounting across any number of observed
// runners — the machine-readable totals the benchmark harness emits
// (cluster seconds consumed, runs executed) and the perf-regression gate
// compares. Safe for concurrent use. Tally is itself a RunObserver, so it
// composes with metrics sinks on the same Observed wrapper.
type Tally struct {
	runs    atomic.Int64
	secBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// ObserveRun accumulates one execution (wall time is ignored: the tally
// tracks simulated cluster cost, not host time).
func (t *Tally) ObserveRun(kind string, wallSec, clusterSec float64) {
	t.runs.Add(1)
	for {
		old := t.secBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + clusterSec)
		if t.secBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the executions counted and the cluster seconds consumed.
func (t *Tally) Snapshot() (runs int64, clusterSec float64) {
	return t.runs.Load(), math.Float64frombits(t.secBits.Load())
}

// Observed wraps a backend and reports every execution (application runs;
// not noiseless evaluations, which consume no cluster time) to a set of
// RunObservers — a Tally for totals, a metrics sink for labeled
// counters and duration histograms, or both. A batch handed to an outermost
// Observed dispatches through the package RunBatch on the inner backend and
// is reported member by member afterwards. The wrapper adds no allocations
// per run beyond what the observers themselves do (pinned by
// TestObservedZeroExtraAllocs).
type Observed struct {
	forward
	obs []RunObserver
}

// Observe wraps r, reporting executions to every observer in obs.
func Observe(r Runner, obs ...RunObserver) *Observed {
	return &Observed{forward: forward{r}, obs: obs}
}

func (m *Observed) observe(kind string, wallSec, clusterSec float64) {
	for _, o := range m.obs {
		o.ObserveRun(kind, wallSec, clusterSec)
	}
}

// RunApp claims the next index and executes it observed.
func (m *Observed) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return m.RunAppAt(m.inner.ReserveRuns(1), app, c, dataGB, nil)
}

// RunAppAt executes and reports one application run at a pinned index.
func (m *Observed) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	start := time.Now()
	res := m.inner.RunAppAt(idx, app, c, dataGB, into)
	m.observe(KindApp, time.Since(start).Seconds(), res.Sec)
	return res
}

// RunBatch dispatches on the inner backend and reports the completed
// prefix, one observation per run under KindBatch with the batch wall
// amortized across them.
func (m *Observed) RunBatch(app *Application, cs []conf.Config, dataGB func(i int) float64, workers int, stop func() bool) ([]AppResult, int) {
	start := time.Now()
	results, done := RunBatch(m.inner, app, cs, dataGB, workers, stop)
	wallEach := 0.0
	if done > 0 {
		wallEach = time.Since(start).Seconds() / float64(done)
	}
	for i := 0; i < done; i++ {
		m.observe(KindBatch, wallEach, results[i].Sec)
	}
	return results, done
}

var (
	_ Faulty      = (*Observed)(nil)
	_ RunObserver = (*Tally)(nil)
)
