// Package locat is a from-scratch Go reproduction of LOCAT — the
// low-overhead online configuration auto-tuner for Spark SQL applications of
// Xin, Hwang and Yu (SIGMOD 2022) — together with every substrate the
// paper's evaluation depends on: an analytical Spark SQL cluster simulator
// (standing in for the paper's ARM and x86 clusters, see internal/sparksim),
// the TPC-DS / TPC-H / HiBench workload profiles, a Gaussian-process
// Bayesian-optimization stack, kernel PCA, and reimplementations of the
// four baseline tuners (Tuneful, DAC, GBO-RL, QTune).
//
// The package is the public facade. A minimal session:
//
//	res, err := locat.Tune(locat.Options{
//		Cluster:    "x86",
//		Benchmark:  "TPC-H",
//		DataSizeGB: 100,
//	})
//
// res.BestParams maps Spark property names to tuned values; res.Overhead
// reports the simulated cluster time the tuning consumed — the quantity the
// paper calls optimization time.
//
// The paper's three techniques can be toggled individually (DisableQCSA,
// DisableIICP, DisableDAGP) for ablation, the input data size may change
// while tuning (Schedule) to exercise the datasize-aware Gaussian process,
// and CompareBaselines runs the four SOTA tuners on the same problem.
//
// For long-running deployments, NewService starts a tuning service: a
// bounded pool of concurrent sessions with a history store that
// warm-starts jobs for workloads similar to past ones, and an HTTP facade
// (see cmd/locat-serve) exposing submit / status / result / cancel and the
// history over JSON.
package locat

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"locat/internal/baselines"
	"locat/internal/core"
	"locat/internal/obs"
	"locat/internal/progress"
	"locat/internal/runner"
	"locat/internal/service"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Options configure a tuning session.
type Options struct {
	// Cluster selects the simulated hardware: "arm" (four-node KUNPENG,
	// 384 executor cores) or "x86" (eight-node Xeon, 140 executor cores).
	// Default "arm".
	Cluster string
	// Benchmark is one of Benchmarks(): "TPC-DS", "TPC-H", "Join", "Scan",
	// "Aggregation". Default "TPC-DS".
	Benchmark string
	// DataSizeGB is the target input size the tuned configuration is
	// optimized and evaluated for. Default 100.
	DataSizeGB float64
	// Schedule, if non-nil, supplies the input size of each tuning run —
	// the paper's online scenario where data grows while the application
	// keeps running. The DAGP transfers observations across sizes.
	Schedule func(run int) float64
	// Seed makes the session reproducible. Default 1.
	Seed int64
	// NQCSA and NIICP override the paper's sample counts (30 and 20).
	NQCSA, NIICP int
	// MaxIterations caps the post-IICP Bayesian-optimization runs.
	MaxIterations int
	// DisableQCSA, DisableIICP and DisableDAGP switch off LOCAT's three
	// techniques for ablation studies.
	DisableQCSA, DisableIICP, DisableDAGP bool
	// Quiet suppresses the progress log. By default Tune (and the Service)
	// reports phase transitions, sample counts and the stop condition on
	// stderr; Quiet silences all of it.
	Quiet bool
	// ColdStart opts a Service job out of history retrieval: the session
	// runs the full sampling pipeline even when similar past sessions
	// exist. Useful as a control when measuring what warm starts save, and
	// for re-validating a workload from scratch. Ignored by Tune, which
	// never consults a history store.
	ColdStart bool
	// Tenant attributes a Service job to a tenant for per-tenant budget
	// enforcement (ServiceOptions.Tenants). Empty is the anonymous tenant.
	// Tenants do not partition the history store — warm-start sharing
	// across tenants is deliberate. Ignored by Tune.
	Tenant string
	// Priority is a Service job's scheduling class: "interactive"
	// dispatches ahead of "batch" (the default) and is never shed under
	// overload. Ignored by Tune.
	Priority string
	// DeadlineSec, when positive, bounds a Service job's wall-clock session
	// time: past the deadline the session stops at the next evaluation
	// boundary and returns its best-so-far configuration as a Degraded
	// result. Ignored by Tune.
	DeadlineSec float64
	// MaxClusterSec, when positive, bounds the simulated cluster seconds a
	// Service job may spend tuning — the deterministic twin of DeadlineSec.
	// Exceeding it degrades the result, like a deadline. Ignored by Tune.
	MaxClusterSec float64
	// Parallelism bounds the goroutines used for the session's parallel
	// work: the concurrent execution slots of independent sample-collection
	// runs (phase-1 LHS samples, warm-start anchors) and the MCMC chains of
	// every GP hyperparameter resample. 0 uses all CPU cores, 1 runs
	// serially. The result is identical for every setting — each run's noise
	// and each chain's randomness derive from its index, not from execution
	// order — so this only trades wall-clock time for CPU.
	Parallelism int
	// Backend selects the execution backend (see internal/runner):
	//
	//	""  or "sim"               the analytical cluster simulator
	//	"record=PATH"              simulator + trace recording to PATH
	//	"replay=PATH[,miss=nearest[,tol=T]]"
	//	                           deterministic replay of a recorded trace,
	//	                           with the simulator fully detached
	//	"sparkrest=URL"            spark-submit/REST gateway submissions
	//
	// Replaying a recorded session reproduces its chosen configuration and
	// cost exactly; a replay that requests an execution absent from the
	// trace fails hard under the default miss policy.
	Backend string
	// Chaos, when non-empty, wraps the backend in deterministic fault
	// injection plus the healing retry/circuit-breaker layer — the
	// resilience-testing harness. The spec is runner.ParseChaosSpec syntax,
	// e.g. "drop=0.3,maxfail=2,seed=7": each injected fault is a pure
	// function of (seed, run index, attempt), so a chaotic session is
	// exactly reproducible. While the drop ceiling (maxfail) stays under
	// the retry budget every fault heals and the tuned configuration is
	// bit-identical to a fault-free session's; a sticky backend death
	// instead degrades the session (see Result.Degraded).
	Chaos string
}

// Result is the outcome of a tuning session, from Tune or from a Service
// job: the session's service.JobResult (resultOf) with its *Sec fields named
// *Seconds, plus the wall-clock Elapsed and the phase timeline.
type Result struct {
	// BestParams maps Spark property names to the tuned values. Boolean
	// properties use 1 (true) / 0 (false).
	BestParams map[string]float64
	// TunedSeconds is the noiseless benchmark latency under the tuned
	// configuration at the target size.
	TunedSeconds float64
	// DefaultSeconds is the latency under Spark defaults, for reference.
	DefaultSeconds float64
	// OverheadSeconds is the simulated cluster time consumed by tuning
	// (the paper's optimization time). It splits into SamplingSeconds
	// (phase-1 full-application sample collection) and SearchSeconds
	// (phase-2 subspace optimization on the reduced query application).
	OverheadSeconds float64
	SamplingSeconds float64
	SearchSeconds   float64
	// WarmStarted reports whether the session was seeded with observations
	// from similar past sessions instead of collecting the full sample set
	// (always false for a direct Tune call; the Service sets it).
	WarmStarted bool
	// Runs is the number of tuning executions (full application + RQA).
	Runs int
	// SensitiveQueries lists the configuration-sensitive queries QCSA kept
	// (nil when QCSA is disabled).
	SensitiveQueries []string
	// ImportantParams lists the parameters IICP selected for tuning
	// (nil when IICP is disabled).
	ImportantParams []string
	// Degraded, when non-empty, records that the execution backend died
	// mid-session and why. The session still returns the best configuration
	// it measured before death — never worse than the defaults, thanks to
	// the fallback guardrail — instead of failing.
	Degraded string
	// FellBack reports that the final-selection guardrail replaced the
	// session's choice with the Spark defaults because the choice evaluated
	// worse at the target size.
	FellBack bool
	// Elapsed is the wall-clock time of the session.
	Elapsed time.Duration
	// Phases is the session's timeline, one entry per pipeline phase in
	// execution order (repeated GP hyperparameter resamples are merged into
	// one entry): where the wall-clock time, the simulated cluster seconds
	// and the runs went.
	Phases []Phase

	sparkConf string
}

// Phase is one pipeline phase's share of a tuning session: "phase1/sampling"
// (or "phase1/warm-anchors" for warm starts), "qcsa/reduce",
// "dagp/select-base", "iicp/select", "phase2/search", "gp/hyper-resample"
// and "final/select".
type Phase struct {
	// Name identifies the phase.
	Name string
	// WallSeconds is the host wall-clock time the phase took.
	WallSeconds float64
	// ClusterSeconds is the simulated cluster time charged to the phase
	// (zero for pure-compute phases like the QCSA reduction).
	ClusterSeconds float64
	// Runs is the number of executions the phase issued.
	Runs int64
}

// SparkConf renders the tuned configuration in spark-defaults.conf syntax,
// ready to drop into a cluster's conf directory.
func (r *Result) SparkConf() string { return r.sparkConf }

// Benchmarks returns the supported benchmark names (Table 1).
func Benchmarks() []string {
	return []string{"TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"}
}

// Clusters returns the supported cluster names.
func Clusters() []string { return sparksim.ClusterNames() }

func (o *Options) normalize() error {
	if o.Benchmark == "" {
		o.Benchmark = "TPC-DS"
	}
	if o.DataSizeGB == 0 {
		o.DataSizeGB = 100
	}
	if o.DataSizeGB < 0 {
		return errors.New("locat: negative data size")
	}
	if math.IsNaN(o.DataSizeGB) || math.IsInf(o.DataSizeGB, 0) {
		return errors.New("locat: data size is not a finite number")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Tune runs the full LOCAT pipeline (QCSA → IICP → BO with DAGP) and
// returns the tuned configuration and its cost accounting.
func Tune(o Options) (*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	cl, err := sparksim.ClusterByName(o.Cluster)
	if err != nil {
		return nil, fmt.Errorf("locat: %w", err)
	}
	// Checked before a backend is opened: a recording one creates its file.
	if err := workloads.Check(o.Benchmark); err != nil {
		return nil, err
	}
	factory, err := runner.ParseSpec(o.Backend)
	if err != nil {
		return nil, err
	}
	// Close is idempotent; the deferred call covers error paths so a
	// recording backend never leaks its sink, while the explicit Close
	// below surfaces flush errors on success.
	defer factory.Close()
	run, err := factory.New(cl, o.Seed, "tune")
	if err != nil {
		return nil, err
	}
	if o.Chaos != "" {
		chaos, err := runner.ParseChaosSpec(o.Chaos)
		if err != nil {
			return nil, err
		}
		// Injection below, healing above: drops and delays surface to the
		// retry wrapper, which re-executes at the same run index — so a
		// healed run's result is identical to a never-faulted one.
		run = runner.NewRetrying(runner.NewChaos(run, *chaos), runner.RetryOptions{Seed: o.Seed})
	}

	timeline := obs.NewTimeline()
	start := time.Now()
	jr, _, err := service.RunSession(run, specOf(o), func(opts *core.Options) {
		opts.DataSchedule = o.Schedule
		opts.Workers = o.Parallelism
		if !o.Quiet {
			opts.Logf = progress.New(os.Stderr, "locat:")
		}
		opts.Tracer = timeline
	})
	if err != nil {
		return nil, err
	}
	res := resultOf(jr)
	res.Elapsed = time.Since(start)
	res.Phases = phasesOf(timeline.Snapshot())
	if err := factory.Close(); err != nil {
		return nil, fmt.Errorf("locat: closing backend: %w", err)
	}
	return res, nil
}

// resultOf renames a session result onto the public Result. Elapsed and
// Phases come from the caller's clock and timeline.
func resultOf(jr *service.JobResult) *Result {
	return &Result{
		sparkConf:        jr.SparkConf,
		BestParams:       jr.BestParams,
		TunedSeconds:     jr.TunedSec,
		DefaultSeconds:   jr.DefaultSec,
		OverheadSeconds:  jr.OverheadSec,
		SamplingSeconds:  jr.SamplingSec,
		SearchSeconds:    jr.SearchSec,
		WarmStarted:      jr.WarmStarted,
		Degraded:         jr.Degraded,
		FellBack:         jr.FellBack,
		Runs:             jr.FullRuns + jr.RQARuns,
		SensitiveQueries: jr.SensitiveQueries,
		ImportantParams:  jr.ImportantParams,
	}
}

// BaselineResult is one SOTA tuner's outcome on the same problem ("Tuneful",
// "DAC", "GBO-RL" or "QTune"); Runs counts its full-application executions.
type BaselineResult = baselines.Report

// CompareBaselines tunes the same (cluster, benchmark, size) problem with
// the four state-of-the-art baseline tuners the paper compares against.
func CompareBaselines(o Options) ([]BaselineResult, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	cl, err := sparksim.ClusterByName(o.Cluster)
	if err != nil {
		return nil, fmt.Errorf("locat: %w", err)
	}
	app, err := workloads.ByName(o.Benchmark)
	if err != nil {
		return nil, err
	}
	factory, err := runner.ParseSpec(o.Backend)
	if err != nil {
		return nil, err
	}
	defer factory.Close()
	var out []BaselineResult
	for _, bt := range baselines.All() {
		run, err := factory.New(cl, o.Seed, "baseline/"+bt.Name())
		if err != nil {
			return nil, err
		}
		rep, err := bt.Tune(run, app, o.DataSizeGB, o.Seed+7)
		if err != nil {
			return nil, err
		}
		if err := runner.BackendErr(run); err != nil {
			return nil, fmt.Errorf("locat: execution backend failed: %w", err)
		}
		out = append(out, *rep)
	}
	if err := factory.Close(); err != nil {
		return nil, fmt.Errorf("locat: closing backend: %w", err)
	}
	return out, nil
}

// phasesOf maps recorded spans onto the public phase timeline, merging
// repeated spans by name.
func phasesOf(spans []obs.SpanRecord) []Phase {
	agg := obs.Aggregate(spans)
	out := make([]Phase, 0, len(agg))
	for _, sp := range agg {
		out = append(out, Phase{
			Name:           sp.Name,
			WallSeconds:    sp.WallMS / 1000,
			ClusterSeconds: sp.ClusterSec,
			Runs:           sp.Runs,
		})
	}
	return out
}
