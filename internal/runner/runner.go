// Package runner defines the execution-backend contract of the tuner: the
// seam between LOCAT's sample-efficient search (core, bo, qcsa, iicp,
// baselines, experiments, service) and whatever actually executes a Spark
// SQL application under a candidate configuration.
//
// The contract is three things. An application run: execute an Application
// under a configuration at a data size as one run index and report
// per-query latencies (RunApp claims the next index, RunAppAt is handed
// one). A noiseless evaluation: the backend's deterministic estimate of the
// same latency, which consumes no run index and no cluster time. A batch:
// many application runs over one reserved index block (the package-level
// RunBatch). There is no single-query run: QCSA reads per-query latencies
// out of full-application results, and a reduced query application — down
// to one query — is an Application like any other.
//
// Two backends ship:
//
//   - NewSim hands back *sparksim.Simulator itself (the default).
//   - SparkRest maps configurations to spark-submit/REST payloads and
//     parses event-log-shaped responses — the production path to a real
//     cluster, exercised in tests against httptest (see sparkrest.go).
//
// Backends differ in one fact, with one reader: SparkRest caps concurrent
// submissions, and the batch pool clamps its workers to that cap
// (maxParallel, below). A batch on any backend is the package-level
// RunBatch: one bounded worker pool over ReserveRuns / RunAppAt that
// reproduces serial results exactly (see batch.go).
//
// Decorators (Observed, Chaos, Retrying, Cache) change one thing about an
// inner backend and forward the rest. The forwarding is written once, on
// the embedded forward struct below: a decorator declares its own state,
// RunAppAt, and a one-line RunApp that claims the next index for it.
// Record, replay and resume are three configurations of Cache (cache.go):
// NewRecorder writes a session's runs to a JSON-lines trace,
// NewReplayerFromEntries serves them back with the simulator detached, and
// the service resumes a job out of its checkpoint.
// A failed run reports a zero result and its cause through the sticky Err;
// only Retrying sees per-attempt faults, from the Chaos it wraps.
package runner

import (
	"locat/internal/conf"
	"locat/internal/sparksim"
)

// The workload and result data model is shared with the simulator package,
// which doubles as the analytical profile library (an Application is a list
// of query profiles; an AppResult is per-query latencies plus totals — the
// same shape a Spark event log reduces to). Aliases let backend-agnostic
// code speak "runner" without importing sparksim.
type (
	// Application is an ordered set of queries executed back to back.
	Application = sparksim.Application
	// AppResult is the outcome of one application execution.
	AppResult = sparksim.AppResult
	// QueryResult is the outcome of one query execution.
	QueryResult = sparksim.QueryResult
)

// Runner executes applications under candidate configurations. All methods
// must be safe for concurrent use: the batch pool fans RunAppAt calls over
// worker goroutines.
//
// Run indices exist so that stochastic backends can make results a pure
// function of (backend state, index) instead of call order: a driver that
// reserves a block of indices and executes them on concurrent workers
// reproduces the serial call sequence bit-for-bit. Backends without that
// property (a real cluster) simply treat the index as an opaque sequence
// number.
type Runner interface {
	// Space returns the configuration space the backend executes over.
	Space() *conf.Space
	// ReserveRuns atomically claims a contiguous block of n run indices and
	// returns the first.
	ReserveRuns(n int) uint64
	// RunApp executes every query of the application in order under c and
	// returns per-query and total results, claiming the next run index. It
	// is RunAppAt(ReserveRuns(1), app, c, dataGB, nil).
	RunApp(app *Application, c conf.Config, dataGB float64) AppResult
	// RunAppAt executes the application as run index idx without touching
	// the run counter, appending the per-query results to into[:0]: the
	// result's Queries share into's array when its capacity suffices, and
	// nil allocates a fresh slice. The caller owns the returned Queries and
	// may pass them back as into for its next run; a backend or decorator
	// that keeps a result past the call keeps a copy (Cache's withResult).
	// Both methods borrow c for the call only.
	RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult
	// NoiselessAppTime returns the backend's best deterministic estimate of
	// the application latency under c — the quantity tuned-vs-default
	// comparisons report. The simulator evaluates its cost model noise-free;
	// a replay backend looks the value up in the trace; a live backend may
	// have to execute a validation run.
	NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64
}

// Faulty is optionally implemented by backends that can fail out-of-band
// (network transports): Err returns the first execution failure, or nil.
// Runner methods have no error channel — a failed run reports a zero
// result — so session drivers must consult BackendErr after tuning and
// refuse to report a result produced against a dead backend.
type Faulty interface {
	Err() error
}

// BackendErr returns the backend's sticky execution failure, if any.
func BackendErr(r Runner) error {
	if f, ok := r.(Faulty); ok {
		return f.Err()
	}
	return nil
}

// forward is what a decorator does not change, written once. Index
// accounting, the configuration space, noiseless evaluations and the
// concurrency cap belong to the inner backend; its sticky failure shows
// through (Chaos and Retrying report their own first). The pool routes
// every run of a batch through the decorator's RunAppAt by index.
// A decorator embeds forward and adds the two run methods; RunAppAt hands
// the caller's into down unchanged, so the inner backend fills the caller's
// buffer:
//
//	type Logged struct{ forward }
//
//	func (l *Logged) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
//		log.Printf("run %d", idx)
//		return l.inner.RunAppAt(idx, app, c, dataGB, into)
//	}
//
//	func (l *Logged) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
//		return l.RunAppAt(l.inner.ReserveRuns(1), app, c, dataGB, nil)
//	}
type forward struct {
	inner Runner
}

// Space returns the inner backend's configuration space.
func (f forward) Space() *conf.Space { return f.inner.Space() }

// ReserveRuns delegates index accounting, so every layer of a stack hands
// out the backend's own index sequence.
func (f forward) ReserveRuns(n int) uint64 { return f.inner.ReserveRuns(n) }

// NoiselessAppTime passes through: a deterministic evaluation models no
// execution, so it is never observed, faulted or retried.
func (f forward) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	return f.inner.NoiselessAppTime(app, c, dataGB)
}

// Err surfaces the inner backend's sticky failure, so BackendErr sees
// through any depth of wrapping.
func (f forward) Err() error { return BackendErr(f.inner) }

// maxParallel inherits the inner backend's concurrency cap, so the batch
// pool clamps to it through any depth of wrapping.
func (f forward) maxParallel() int { return maxParallelOf(f.inner) }

// maxParallelOf bounds the concurrent runs r can absorb (0 = unbounded):
// SparkRest's submission slots, seen through forward.
func maxParallelOf(r Runner) int {
	if c, ok := r.(interface{ maxParallel() int }); ok {
		return c.maxParallel()
	}
	return 0
}
