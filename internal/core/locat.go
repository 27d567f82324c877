// Package core implements the LOCAT tuner — the paper's primary
// contribution (Section 3). It orchestrates the three techniques:
//
//  1. An initial Bayesian-optimization phase with the datasize-aware
//     Gaussian process (DAGP) runs the full application N_QCSA = 30 times;
//     these executions double as the QCSA and IICP sample sets ("we leverage
//     the samples performed by the BO iterations", Section 5.1).
//  2. QCSA classifies queries by latency CV and removes the
//     configuration-insensitive ones, yielding the reduced query
//     application (RQA) that all further sample collection runs.
//  3. IICP (Spearman CPS + Gaussian-kernel KPCA CPE) selects the important
//     configuration parameters; Bayesian optimization continues over that
//     subspace only, warm-started with the phase-1 observations, until the
//     CherryPick-style stop condition fires (≥10 iterations and EI < 10%).
//
// All three techniques can be disabled independently for the paper's
// ablations (Figures 15 and 21).
//
// Beyond the within-session pipeline, the tuner accepts a Prior — QCSA /
// IICP artifacts and observations retrieved from past sessions on similar
// workloads. With a sufficient prior the expensive phase-1 sample
// collection shrinks to a handful of anchor runs: the DAGP transfers the
// retrieved cross-size observations to the current target size, which is
// what the tuning service's history store exploits to warm-start sessions.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"locat/internal/bo"
	"locat/internal/conf"
	"locat/internal/dagp"
	"locat/internal/iicp"
	"locat/internal/obs"
	"locat/internal/progress"
	"locat/internal/qcsa"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// ErrStopped is returned by Tune when the Stop hook interrupts the session
// between evaluations.
var ErrStopped = errors.New("core: tuning stopped")

const (
	// minWarmObs is the smallest prior-observation count that activates the
	// warm-start path; below it the prior cannot support a trustworthy
	// surrogate and the session runs cold.
	minWarmObs = 5
	// warmFreshRuns is the number of fresh full-application anchor runs a
	// warm-started session still executes. They ground the surrogate in the
	// session's current cluster conditions.
	warmFreshRuns = 4
	// hyperEvery re-samples the GP hyperparameters every k-th BO iteration.
	// In between, the surrogate keeps one live GP per posterior sample and
	// appends new observations with an O(n²) incremental Cholesky extension
	// instead of the O(n³) refit — the hot-path saving that lets warm-started
	// sessions carry dozens of prior observations without blowing the
	// tuning-overhead budget.
	hyperEvery = 3
)

// PriorObs is one observation retrieved from a past tuning session.
type PriorObs struct {
	// Conf is the full configuration that was executed.
	Conf conf.Config
	// DataGB is the input size the observation was taken at. The DAGP
	// transfers it to the current target size (Section 3.4).
	DataGB float64
	// Sec is the observed full-application latency.
	Sec float64
	// QuerySecs holds the per-query latencies of the run; warm-started
	// sessions use them to re-express the observation on the scale of the
	// current reduced query application.
	QuerySecs map[string]float64
}

// Prior carries knowledge retrieved from past sessions on similar
// workloads: raw observations plus the QCSA / IICP analysis artifacts that
// let a new session skip sample collection.
type Prior struct {
	// Obs are past observations (any data sizes; the DAGP bridges them).
	Obs []PriorObs
	// Sensitive, when non-empty, is a past session's QCSA result: the
	// configuration-sensitive query names the RQA keeps.
	Sensitive []string
	// Important, when non-empty, is a past session's IICP result: the
	// parameter indices phase-2 optimization is restricted to.
	Important []int
}

// Options configure the LOCAT tuner.
type Options struct {
	// NQCSA is the number of full-application sample runs used for QCSA
	// (paper: 30, Section 5.1). These are also the phase-1 BO iterations.
	NQCSA int
	// NIICP is the number of those samples used for IICP (paper: 20,
	// Section 5.3).
	NIICP int
	// MinIter, MaxIter and EIStopFrac control the phase-2 BO loop
	// (paper: ≥10 iterations, EI < 10%).
	MinIter    int
	MaxIter    int
	EIStopFrac float64
	// MCMCSamples is the EI-MCMC hyperparameter sample count.
	MCMCSamples int
	// UseQCSA, UseIICP and UseDAGP toggle the three techniques
	// (all true under DefaultOptions; the ablations of Figures 15/21
	// disable them selectively).
	UseQCSA bool
	UseIICP bool
	UseDAGP bool
	// DataSchedule, if non-nil, returns the input data size (GB) of the
	// i-th tuning run — the paper's online scenario where the size changes
	// over time. Nil runs everything at the Tune target size.
	DataSchedule func(run int) float64
	// Prior, if non-nil and holding at least minWarmObs observations,
	// warm-starts the session: phase-1 sample collection shrinks to
	// warmFreshRuns anchor executions and QCSA / IICP reuse the prior
	// artifacts (re-analysing only what the prior lacks). Requires UseDAGP —
	// transferring observations taken at other data sizes is exactly what
	// the datasize feature is for — and is ignored otherwise.
	Prior *Prior
	// Workers bounds the goroutines used for the session's parallel work:
	// the simulated cluster slots that execute independent sample-collection
	// runs concurrently (the phase-1 LHS block of a cold session, the anchor
	// runs of a warm one) and the MCMC chains of every GP hyperparameter
	// resample (bo.Options.Workers / dagp.FitWorkers). 0 selects GOMAXPROCS,
	// 1 runs serially. Per-run noise streams, index-ordered batch reductions
	// and per-chain rng streams make the history — and therefore the whole
	// tuning trajectory — identical for every worker count; the knob only
	// changes wall-clock time.
	Workers int
	// Stop, if non-nil, is polled between evaluations; returning true
	// aborts the session and Tune returns ErrStopped. The tuning service
	// uses it for cooperative job cancellation.
	Stop func() bool
	// Expired, if non-nil, is polled between evaluations like Stop, but an
	// expired session degrades instead of aborting: Tune returns the best
	// configuration observed so far with Report.Degraded explaining the
	// deadline. The service wires a context deadline here. Wall-clock-based,
	// so where exactly the cutoff lands is not reproducible — use
	// MaxClusterSec for a deterministic budget.
	Expired func() bool
	// MaxClusterSec, when positive, bounds the simulated cluster seconds the
	// session may spend; past the budget it degrades like an expired
	// deadline. Overhead accrues only between evaluation batches on the
	// session goroutine, so the cutoff point — and therefore the degraded
	// result — is bit-for-bit reproducible at any worker count.
	MaxClusterSec float64
	// Tracer, if non-nil, receives one span per session phase (phase-1
	// sampling or warm anchors, QCSA, IICP, phase-2 search, final
	// selection, plus one per GP hyperparameter resample), each charged
	// with the wall time, simulated cluster seconds and run count the phase
	// consumed. Nil means no tracing: the no-op tracer costs nothing on the
	// hot path (zero allocations per span; see internal/obs).
	Tracer obs.Tracer
	// Logf, if non-nil, receives progress lines (phase transitions, run
	// counts, stop-condition firings).
	Logf progress.Logf
	// Seed drives all randomness.
	Seed int64
}

// DefaultOptions mirror the paper's settings.
func DefaultOptions() Options {
	return Options{
		NQCSA:       30,
		NIICP:       20,
		MinIter:     10,
		MaxIter:     60,
		EIStopFrac:  0.10,
		MCMCSamples: 5,
		UseQCSA:     true,
		UseIICP:     true,
		UseDAGP:     true,
	}
}

// Eval records one tuning run.
type Eval struct {
	// Conf is the configuration executed.
	Conf conf.Config
	// DataGB is the input size of the run.
	DataGB float64
	// Sec is the observed latency of whatever was run (full app in phase 1,
	// RQA in phase 2).
	Sec float64
	// FullApp distinguishes phase-1 full-application runs from RQA runs.
	FullApp bool
	// QuerySecs holds the per-query latencies of the run. The history
	// store persists them so future sessions can re-express the
	// observation on any RQA scale.
	QuerySecs map[string]float64
}

// Report is the outcome of a Tune call.
type Report struct {
	// Best is the chosen configuration.
	Best conf.Config
	// TunedSec is the noiseless full-application latency under Best at the
	// target size — the quantity the paper's speedup figures compare.
	TunedSec float64
	// OverheadSec is the total simulated cluster time consumed while
	// tuning — the paper's "optimization time". It always equals
	// SamplingSec + SearchSec.
	OverheadSec float64
	// SamplingSec is the overhead of phase 1 (full-application sample
	// collection — or the anchor runs of a warm-started session).
	SamplingSec float64
	// SearchSec is the overhead of phase 2 (subspace BO on the RQA).
	SearchSec float64
	// FullRuns and RQARuns count the tuning executions by kind.
	FullRuns, RQARuns int
	// WarmStarted reports whether the session consumed a Prior instead of
	// collecting the full phase-1 sample set.
	WarmStarted bool
	// PriorObsUsed is the number of prior observations injected (0 cold).
	PriorObsUsed int
	// Degraded, when non-empty, records why the session ended early on a
	// failing backend (the sticky BackendErr). The session then returns the
	// best full-application configuration it observed instead of failing —
	// tuning is best-effort once real cluster time has been paid.
	Degraded string
	// FellBack reports that the final guardrail replaced the selected
	// configuration with the space default because the selection evaluated
	// worse: the recommendation is never worse than not tuning at all.
	FellBack bool
	// BaselineSec is the noiseless full-application latency of the default
	// configuration at the target size — what the guardrail compared
	// TunedSec against.
	BaselineSec float64
	// QCSA and IICP hold the analysis artifacts (nil when disabled). A
	// warm-started session that reused prior artifacts synthesizes minimal
	// results carrying the reused Sensitive / Important sets.
	QCSA *qcsa.Result
	IICP *iicp.Result
	// History records every tuning run in order.
	History []Eval
}

// Evaluations returns the total number of tuning runs.
func (r *Report) Evaluations() int { return r.FullRuns + r.RQARuns }

// Tuner tunes one application against one execution backend.
type Tuner struct {
	run  runner.Runner
	app  *sparksim.Application
	opts Options
}

// New returns a LOCAT tuner for the application on the given execution
// backend — the simulator adapter, a trace recorder/replayer, or a REST
// gateway (see internal/runner). *sparksim.Simulator satisfies the
// interface directly, so simulator sessions read exactly as before.
func New(run runner.Runner, app *sparksim.Application, opts Options) *Tuner {
	if opts.NQCSA <= 0 {
		opts.NQCSA = 30
	}
	if opts.NIICP <= 0 || opts.NIICP > opts.NQCSA {
		opts.NIICP = min(20, opts.NQCSA)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 40
	}
	if opts.MinIter <= 0 {
		opts.MinIter = 10
	}
	if opts.MCMCSamples <= 0 {
		opts.MCMCSamples = 5
	}
	return &Tuner{run: run, app: app, opts: opts}
}

func (t *Tuner) logf(format string, args ...any) { progress.F(t.opts.Logf, format, args...) }

func (t *Tuner) stopped() bool { return t.opts.Stop != nil && t.opts.Stop() }

// overBudget reports why the session must degrade to best-so-far: the
// cluster-second budget is exhausted or the wall-clock deadline passed. Nil
// means keep searching. The budget check reads rep.OverheadSec, which only
// the session goroutine mutates between evaluation batches, so a budget
// cutoff is deterministic across worker counts; the deadline is wall-clock
// and is not.
func (t *Tuner) overBudget(rep *Report) error {
	if t.opts.MaxClusterSec > 0 && rep.OverheadSec >= t.opts.MaxClusterSec {
		return fmt.Errorf("core: cluster-second budget exhausted (%.0f s of %.0f s)",
			rep.OverheadSec, t.opts.MaxClusterSec)
	}
	if t.opts.Expired != nil && t.opts.Expired() {
		return errors.New("core: deadline exceeded")
	}
	return nil
}

// halted reports why the session cannot go past an evaluation boundary, or
// nil to carry on: a backend gone sticky-faulty (tripped circuit breaker,
// dead gateway), an exhausted deadline or cluster-second budget, or the
// caller's cancellation hook (ErrStopped) — in that order, so a session that
// already paid for sample runs degrades to its best observation instead of
// discarding them.
func (t *Tuner) halted(rep *Report) error {
	if err := runner.BackendErr(t.run); err != nil {
		return err
	}
	if cause := t.overBudget(rep); cause != nil {
		return cause
	}
	if t.stopped() {
		return ErrStopped
	}
	return nil
}

// warmPrior returns the usable prior, or nil when the session must run cold.
func (t *Tuner) warmPrior() *Prior {
	p := t.opts.Prior
	if p == nil || len(p.Obs) < minWarmObs || !t.opts.UseDAGP {
		return nil
	}
	return p
}

// querySecs flattens per-query results into the name→latency map the
// history store persists.
func querySecs(run sparksim.AppResult) map[string]float64 {
	out := make(map[string]float64, len(run.Queries))
	for _, qr := range run.Queries {
		out[qr.Name] += qr.Sec
	}
	return out
}

// Tune searches for the configuration minimizing the application latency at
// targetGB and reports the outcome.
func (t *Tuner) Tune(targetGB float64) (*Report, error) {
	if targetGB <= 0 {
		return nil, errors.New("core: target data size must be positive")
	}
	space := t.run.Space()
	rep := &Report{}
	// Every phase below opens a span on the injected tracer; the no-op
	// default makes this free. phaseSpan is the span sample-collection
	// charges run costs to — recordFull and the phase-2 evaluator run on
	// the session goroutine, so swapping it per phase is race-free.
	tr := obs.OrNop(t.opts.Tracer)
	phaseSpan := obs.Nop.Start("")
	sizeOf := func(run int) float64 {
		if t.opts.DataSchedule != nil {
			return t.opts.DataSchedule(run)
		}
		return targetGB
	}
	ctxOf := func(run int) []float64 {
		if !t.opts.UseDAGP {
			return nil
		}
		return dagp.Ctx(sizeOf(run))
	}
	priorCtx := func(dataGB float64) []float64 {
		if !t.opts.UseDAGP {
			return nil
		}
		return dagp.Ctx(dataGB)
	}

	// ---- Phase 1: collect full-application samples. ----
	// Cold sessions run the paper's N_QCSA-iteration BO-with-DAGP loop.
	// Warm sessions inherit prior observations and run only a few fresh
	// anchor executions — the overhead reduction the history store buys.
	var phase1Runs []sparksim.AppResult
	var samples []iicp.Sample
	recordFull := func(c conf.Config, ds float64, run sparksim.AppResult) float64 {
		rep.OverheadSec += run.Sec
		rep.SamplingSec += run.Sec
		rep.FullRuns++
		phaseSpan.Add(1, run.Sec)
		rep.History = append(rep.History, Eval{
			Conf: c, DataGB: ds, Sec: run.Sec, FullApp: true, QuerySecs: querySecs(run),
		})
		phase1Runs = append(phase1Runs, run)
		samples = append(samples, iicp.Sample{Conf: c, Sec: run.Sec})
		return run.Sec
	}
	runFull := func(c conf.Config) float64 {
		ds := sizeOf(rep.Evaluations())
		return recordFull(c, ds, t.run.RunApp(t.app, c, ds))
	}
	// sessionStop polls halted between evaluations, not only after a search
	// returns: a session must not burn its remaining iteration budget on
	// runs it cannot afford or that can only fail.
	sessionStop := func() bool { return t.halted(rep) != nil }
	// runFullBatch fans independent full-application runs over the worker
	// pool (Options.Workers simulated cluster slots) and reduces the results
	// in index order, so the recorded history matches a serial runFull loop
	// exactly. Run sizes are resolved against the evaluation counter before
	// the batch starts, just as the serial loop would see them. complete is
	// false when Stop cut the batch short after a prefix.
	runFullBatch := func(cs []conf.Config) (ys []float64, complete bool) {
		evalBase := rep.Evaluations()
		sizes := make([]float64, len(cs))
		for i := range cs {
			sizes[i] = sizeOf(evalBase + i)
		}
		runs, done := runner.RunBatch(t.run, t.app, cs, func(i int) float64 { return sizes[i] }, t.opts.Workers, sessionStop)
		ys = make([]float64, done)
		for i := 0; i < done; i++ {
			ys[i] = recordFull(cs[i], sizes[i], runs[i])
		}
		return ys, done == len(cs)
	}

	prior := t.warmPrior()
	var p1res bo.Result
	if prior == nil {
		t.logf("phase 1: collecting %d full-application samples (cold start)", t.opts.NQCSA)
		phaseSpan = tr.Start("phase1/sampling")
		p1 := bo.Problem{
			Dim:  space.Dim(),
			Eval: func(x, ctx []float64) float64 { return runFull(space.Decode(x)) },
			// Phase 1 injects no Init steps, so bo's iteration index is the
			// session run index. Context must be a function of it — the batch
			// evaluator precomputes contexts before any run executes, when the
			// live evaluation counter still points at the batch start.
			Context: func(it int) []float64 { return ctxOf(it) },
		}
		// A third of the sample-collection budget goes to space-filling LHS
		// so the QCSA/IICP statistics see uncorrelated coverage; the rest is
		// EI-guided ("BO with DAGP", Figure 4) and begins improving the
		// incumbent early. The LHS block's points are independent, so the
		// batch evaluator runs them on concurrent simulated cluster slots.
		p1res = bo.Minimize(p1, bo.Options{
			InitPoints:  t.opts.NQCSA / 3,
			MinIter:     t.opts.NQCSA, // phase 1 always collects the full sample set
			MaxIter:     t.opts.NQCSA,
			EIStopFrac:  0, // no early stop while collecting samples
			MCMCSamples: t.opts.MCMCSamples,
			HyperEvery:  hyperEvery,
			Candidates:  400,
			Workers:     t.opts.Workers,
			Seed:        t.opts.Seed,
			Stop:        sessionStop,
			Tracer:      t.opts.Tracer,
			EvalBatch: func(xs, ctxs [][]float64) []float64 {
				cs := make([]conf.Config, len(xs))
				for i, x := range xs {
					cs[i] = space.Decode(x)
				}
				ys, _ := runFullBatch(cs)
				return ys
			},
		})
		phaseSpan.End()
	} else {
		rep.WarmStarted = true
		rep.PriorObsUsed = len(prior.Obs)
		fresh := min(warmFreshRuns, t.opts.NQCSA)
		t.logf("phase 1: warm start from %d prior observations, %d fresh anchor runs",
			len(prior.Obs), fresh)
		phaseSpan = tr.Start("phase1/warm-anchors")
		rng := rand.New(rand.NewSource(t.opts.Seed))
		_, complete := runFullBatch(space.LHS(fresh, rng))
		phaseSpan.End()
		if !complete {
			cause := t.halted(rep)
			if cause == nil {
				cause = ErrStopped // the hook that cut the batch short has let go since
			}
			return t.degrade(rep, space, targetGB, cause)
		}
		// Prior observations and the fresh anchors together form the
		// phase-1 history the DAGP base selection and the phase-2 warm
		// start consume.
		p1res.BestY = math.Inf(1)
		for _, ob := range prior.Obs {
			p1res.History = append(p1res.History, bo.Step{
				X:   space.Encode(ob.Conf),
				Ctx: priorCtx(ob.DataGB),
				Y:   ob.Sec,
			})
		}
		for _, e := range rep.History {
			p1res.History = append(p1res.History, bo.Step{
				X:   space.Encode(e.Conf),
				Ctx: priorCtx(e.DataGB),
				Y:   e.Sec,
			})
		}
		for _, s := range p1res.History {
			if s.Y < p1res.BestY {
				p1res.BestY = s.Y
				p1res.BestX = s.X
			}
		}
	}
	if cause := t.halted(rep); cause != nil {
		return t.degrade(rep, space, targetGB, cause)
	}

	// ---- QCSA: build the reduced query application. ----
	target := t.app
	keepAll := map[string]bool{}
	for _, q := range t.app.Queries {
		keepAll[q.Name] = true
	}
	keep := keepAll
	if t.opts.UseQCSA {
		qs := tr.Start("qcsa/reduce")
		if prior != nil && len(prior.Sensitive) > 0 {
			// Reuse the past session's sensitivity analysis verbatim.
			keep = map[string]bool{}
			for _, n := range prior.Sensitive {
				keep[n] = true
			}
			rqa := t.app.Subset(keep)
			rep.QCSA = &qcsa.Result{
				Sensitive: append([]string(nil), prior.Sensitive...),
				RQA:       rqa,
			}
			target = rqa
			t.logf("qcsa: reusing %d sensitive queries from prior session", len(prior.Sensitive))
		} else {
			qres, err := qcsa.Analyze(t.app, phase1Runs)
			if err != nil {
				qs.End()
				return nil, err
			}
			rep.QCSA = qres
			target = qres.RQA
			keep = map[string]bool{}
			for _, n := range qres.Sensitive {
				keep[n] = true
			}
			t.logf("qcsa: kept %d/%d configuration-sensitive queries",
				len(qres.Sensitive), len(t.app.Queries))
		}
		qs.End()
	}
	rqaSec := func(qs map[string]float64, total float64) (float64, bool) {
		if !t.opts.UseQCSA {
			return total, true
		}
		if qs == nil {
			return 0, false
		}
		var s float64
		for n, sec := range qs {
			if keep[n] {
				s += sec
			}
		}
		return s, true
	}

	// ---- IICP: restrict the search space to important parameters. ----
	// The phase-2 base (which pins every non-important parameter) is chosen
	// by DAGP posterior mean over the phase-1 observations rather than by
	// the noisy observed minimum.
	// In the warm path p1res.History leads with the prior observations —
	// exactly the FitTransfer base.
	warmN := 0
	if prior != nil {
		warmN = len(prior.Obs)
	}
	dspan := tr.Start("dagp/select-base")
	bestPhase1 := space.Decode(t.bestOfHistory(p1res, warmN, targetGB))
	dspan.End()
	tuneIdx := allIndices(space.Dim())
	if t.opts.UseIICP {
		is := tr.Start("iicp/select")
		if prior != nil && len(prior.Important) > 0 {
			tuneIdx = append([]int(nil), prior.Important...)
			rep.IICP = &iicp.Result{Important: append([]int(nil), prior.Important...)}
			t.logf("iicp: reusing %d important parameters from prior session", len(tuneIdx))
		} else {
			isamples := samples
			if prior != nil {
				// A warm session's few anchors are not enough for stable
				// parameter statistics; fold the prior observations in.
				for _, ob := range prior.Obs {
					isamples = append(isamples, iicp.Sample{Conf: ob.Conf, Sec: ob.Sec})
				}
			}
			n := t.opts.NIICP
			if prior != nil {
				n = len(isamples)
			}
			// iicp's defaults carry the paper's CPS Spearman threshold, 0.2.
			ires, err := iicp.Analyze(space, isamples[:min(n, len(isamples))], iicp.DefaultOptions())
			if err != nil {
				is.End()
				return nil, err
			}
			rep.IICP = ires
			if len(ires.Important) > 0 {
				tuneIdx = ires.Important
			}
			t.logf("iicp: selected %d important parameters", len(tuneIdx))
		}
		is.End()
	}
	sub, err := conf.NewSubspace(space, bestPhase1, tuneIdx)
	if err != nil {
		return nil, err
	}

	// Warm-start phase 2 with every known observation re-expressed on the
	// RQA scale (per-query latencies are recorded, so the RQA portion of a
	// full run is known exactly; prior observations lacking per-query data
	// are dropped rather than mis-scaled).
	var init []bo.Step
	if prior != nil {
		for _, ob := range prior.Obs {
			if y, ok := rqaSec(ob.QuerySecs, ob.Sec); ok {
				init = append(init, bo.Step{X: sub.Encode(ob.Conf), Ctx: priorCtx(ob.DataGB), Y: y})
			}
		}
	}
	for _, e := range rep.History {
		if y, ok := rqaSec(e.QuerySecs, e.Sec); ok {
			init = append(init, bo.Step{X: sub.Encode(e.Conf), Ctx: priorCtx(e.DataGB), Y: y})
		}
	}

	// ---- Phase 2: BO over the important-parameter subspace on the RQA. ----
	t.logf("phase 2: subspace BO over %d parameters (%d warm observations)", sub.Dim(), len(init))
	phaseSpan = tr.Start("phase2/search")
	p2 := bo.Problem{
		Dim: sub.Dim(),
		Eval: func(x, ctx []float64) float64 {
			c := sub.Decode(x)
			ds := sizeOf(rep.Evaluations())
			run := t.run.RunApp(target, c, ds)
			rep.OverheadSec += run.Sec
			rep.SearchSec += run.Sec
			phaseSpan.Add(1, run.Sec)
			if t.opts.UseQCSA {
				rep.RQARuns++
			} else {
				rep.FullRuns++
			}
			rep.History = append(rep.History, Eval{
				Conf: c, DataGB: ds, Sec: run.Sec, FullApp: !t.opts.UseQCSA, QuerySecs: querySecs(run),
			})
			return run.Sec
		},
		// Phase 2 evaluates serially (no EvalBatch), so Context is called
		// immediately before each Eval and the live counter is the session
		// run index the data schedule expects. bo's own iteration index would
		// be wrong here: it counts the injected Init steps (prior
		// observations included), not this session's executed runs.
		Context: func(it int) []float64 { return ctxOf(rep.Evaluations()) },
	}
	p2res := bo.Minimize(p2, bo.Options{
		InitPoints:  3,
		MinIter:     t.opts.MinIter,
		MaxIter:     t.opts.MaxIter,
		EIStopFrac:  t.opts.EIStopFrac,
		MCMCSamples: t.opts.MCMCSamples,
		HyperEvery:  hyperEvery,
		Candidates:  800,
		Workers:     t.opts.Workers,
		Init:        init,
		Seed:        t.opts.Seed + 1,
		Stop:        sessionStop,
		Tracer:      t.opts.Tracer,
	})
	phaseSpan.End()
	if cause := t.halted(rep); cause != nil {
		return t.degrade(rep, space, targetGB, cause)
	}

	// ---- Final selection. ----
	// For a warm session the init steps (prior observations re-expressed on
	// the RQA scale plus the phase-1 anchors) are the transfer base.
	p2warm := 0
	if prior != nil {
		p2warm = len(init)
	}
	fs := tr.Start("final/select")
	rep.Best = t.pickBest(sub, p2res, p2warm, targetGB)
	rep.TunedSec = t.run.NoiselessAppTime(t.app, rep.Best, targetGB)
	t.applyGuardrail(rep, space, targetGB)
	fs.End()
	t.logf("done: %d runs, %.0f s overhead (%.0f sampling + %.0f search), tuned latency %.0f s",
		rep.Evaluations(), rep.OverheadSec, rep.SamplingSec, rep.SearchSec, rep.TunedSec)
	return rep, nil
}

// degrade finishes a session cut short mid-way — backend gone
// sticky-faulty, deadline expired, or cluster-second budget exhausted: the
// report keeps everything the session measured and recommends the best
// full-application configuration actually observed (prior observations
// included for warm sessions) rather than failing — cluster time already
// paid for those samples. A session cut short before any successful run
// leaves nothing to recommend and fails with the cause; one the caller
// cancelled (ErrStopped) is discarded, not degraded.
func (t *Tuner) degrade(rep *Report, space *conf.Space, targetGB float64, cause error) (*Report, error) {
	if errors.Is(cause, ErrStopped) {
		return nil, ErrStopped
	}
	var best conf.Config
	bestSec := math.Inf(1)
	if prior := t.warmPrior(); prior != nil {
		for _, ob := range prior.Obs {
			if ob.Sec > 0 && ob.Sec < bestSec {
				best, bestSec = ob.Conf, ob.Sec
			}
		}
	}
	// Failed runs report zero seconds; they are observations of nothing and
	// must not win. Only full-application runs qualify — an RQA latency is
	// on a different scale.
	for _, e := range rep.History {
		if e.FullApp && e.Sec > 0 && e.Sec < bestSec {
			best, bestSec = e.Conf, e.Sec
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: session ended before any successful sample run: %w", cause)
	}
	rep.Best = best
	rep.Degraded = cause.Error()
	// NoiselessAppTime models execution without touching the (dead) backend,
	// so the degraded recommendation still gets an evaluated latency and the
	// guardrail below still applies.
	rep.TunedSec = t.run.NoiselessAppTime(t.app, rep.Best, targetGB)
	t.applyGuardrail(rep, space, targetGB)
	t.logf("degraded: %v; returning best of %d observed runs (%.0f s observed)",
		cause, rep.Evaluations(), bestSec)
	return rep, nil
}

// applyGuardrail pins the session's floor: the recommendation is never
// worse than the default configuration it started from. When the selected
// configuration evaluates slower than the default at the target size, the
// default wins and the report says so — "tuned" must never mean "worse".
func (t *Tuner) applyGuardrail(rep *Report, space *conf.Space, targetGB float64) {
	rep.BaselineSec = t.run.NoiselessAppTime(t.app, space.Default(), targetGB)
	if rep.BaselineSec > 0 && rep.TunedSec > rep.BaselineSec {
		rep.Best = space.Default()
		rep.TunedSec = rep.BaselineSec
		rep.FellBack = true
		t.logf("guardrail: selected configuration (%.0f s) loses to the default (%.0f s); recommending the default",
			rep.TunedSec, rep.BaselineSec)
	}
}

// dagpRank fits a DAGP on the steps and returns the decision point with the
// lowest posterior mean at targetGB — the de-noised, size-transferred
// incumbent. ok is false when the model cannot be fitted. warmN is the
// number of leading steps that came from a warm-start prior: when positive,
// hyperparameters are inferred on that prior alone and the session's own
// runs arrive as a batch append (dagp.FitTransfer), so the MCMC's repeated
// cubic refits do not grow with the session length. workers bounds the
// inference parallelism (Options.Workers; results are identical for every
// worker count).
func dagpRank(hist []bo.Step, warmN int, targetGB float64, seed int64, workers int) (best []float64, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	var ds []dagp.Sample
	for _, s := range hist {
		size := targetGB
		if len(s.Ctx) > 0 {
			size = s.Ctx[0] * dagp.ScaleGB
		}
		ds = append(ds, dagp.Sample{X: s.X, DataGB: size, Sec: s.Y})
	}
	var model *dagp.Model
	var err error
	if warmN > 0 && warmN < len(ds) {
		model, err = dagp.FitTransferWorkers(ds[:warmN], ds[warmN:], rng, workers)
	} else {
		model, err = dagp.FitWorkers(ds, rng, workers)
	}
	if err != nil {
		return nil, false
	}
	// Rank every evaluated point by posterior mean at the target size in one
	// batched prediction instead of a per-point Predict loop.
	xs := make([][]float64, len(hist))
	for i, s := range hist {
		xs[i] = s.X
	}
	means := model.PredictBatch(xs, targetGB, nil)
	bestPred := math.Inf(1)
	for i, m := range means {
		if m < bestPred {
			bestPred = m
			best = hist[i].X
		}
	}
	return best, best != nil
}

// pickBest chooses the final configuration. Without DAGP the best observed
// RQA point wins; with DAGP the surrogate's posterior mean at the target
// size ranks every evaluated point, which both de-noises the selection
// (single runs are noisy; the GP pools information across neighbours) and
// transfers observations taken at other data sizes to the target size
// (Section 3.4's online adaptation).
func (t *Tuner) pickBest(sub *conf.Subspace, res bo.Result, warmN int, targetGB float64) conf.Config {
	if !t.opts.UseDAGP {
		return sub.Decode(res.BestX)
	}
	if x, ok := dagpRank(res.History, warmN, targetGB, t.opts.Seed+2, t.opts.Workers); ok {
		return sub.Decode(x)
	}
	return sub.Decode(res.BestX)
}

// bestOfHistory returns the decision point of res with the lowest DAGP
// posterior mean at targetGB (falling back to the observed best when the
// model cannot be fitted or DAGP is disabled).
func (t *Tuner) bestOfHistory(res bo.Result, warmN int, targetGB float64) []float64 {
	if !t.opts.UseDAGP {
		return res.BestX
	}
	if x, ok := dagpRank(res.History, warmN, targetGB, t.opts.Seed+3, t.opts.Workers); ok {
		return x
	}
	return res.BestX
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
