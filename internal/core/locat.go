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
//
// A session ends early only on the backend's sticky failure or the caller's
// Options.Halt hook: the core holds the mechanism, the caller the limits.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"locat/internal/bo"
	"locat/internal/conf"
	"locat/internal/dagp"
	"locat/internal/gp"
	"locat/internal/iicp"
	"locat/internal/obs"
	"locat/internal/progress"
	"locat/internal/qcsa"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// ErrStopped is returned by Tune when the Halt hook discards the session
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
	// Halt, if non-nil, is asked before every evaluation and every stage
	// after the first whether the session may go on, given the cluster
	// seconds spent so far (see halted). ErrStopped discards the session;
	// any other error degrades it, with the error as Report.Degraded. Spent
	// seconds accrue between evaluation batches on the session goroutine, so
	// a cutoff on them is bit-for-bit reproducible at any worker count.
	Halt func(spentSec float64) error
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
// backend (the simulator adapter, a trace recorder/replayer or a REST gateway;
// see internal/runner). It takes opts as given: DefaultOptions holds defaults.
func New(run runner.Runner, app *sparksim.Application, opts Options) *Tuner {
	return &Tuner{run: run, app: app, opts: opts}
}

func (t *Tuner) logf(format string, args ...any) { progress.F(t.opts.Logf, format, args...) }

// halted reports why the session cannot go past an evaluation boundary, or
// nil to carry on: the backend's sticky failure (tripped circuit breaker,
// dead gateway) first, then the caller's Halt hook on the cluster seconds
// spent. Either degrades a session that already paid for sample runs to its
// best observation, unless the hook answers ErrStopped.
func (t *Tuner) halted(rep *Report) error {
	if err := runner.BackendErr(t.run); err != nil || t.opts.Halt == nil {
		return err
	}
	return t.opts.Halt(rep.OverheadSec)
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
// targetGB and reports the outcome. A session is five stages over one session
// record — sample, reduce, restrict, search, finish — and this loop is the
// only place it can end early: before every stage but the first it asks
// halted whether the backend and the Halt hook still allow another one, and
// degrades to the best observation on a cause (or discards the session on
// ErrStopped).
func (t *Tuner) Tune(targetGB float64) (*Report, error) {
	if targetGB <= 0 {
		return nil, errors.New("core: target data size must be positive")
	}
	if math.IsNaN(targetGB) || math.IsInf(targetGB, 1) {
		return nil, errors.New("core: target data size is not a finite number")
	}
	s := t.newSession(targetGB, workspaces.Get().(*bo.Workspace))
	rep, err := s.stages()
	// Not deferred: a session that panics drops its workspace.
	workspaces.Put(s.ws)
	return rep, err
}

// workspaces keeps the surrogate workspaces of ended sessions for the next
// ones, so a process that tunes session after session (locat-serve's
// dispatcher workers) allocates the surrogate's storage once, not per session.
var workspaces = sync.Pool{New: func() any { return new(bo.Workspace) }}

// stages runs the session's stages in order.
func (s *session) stages() (*Report, error) {
	for i, stage := range []func() error{s.sample, s.reduce, s.restrict, s.search, s.finish} {
		if i > 0 {
			cause := s.halted(s.rep)
			if cause == nil && s.cut {
				cause = ErrStopped // the hook that cut the batch short has let go since
			}
			if cause != nil {
				return s.degrade(cause)
			}
		}
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return s.rep, nil
}

// session is one Tune call in flight: what the stages hand to each other.
// Everything runs on the session goroutine (batch workers only execute runs;
// their results are recorded after the batch returns), so no field is
// synchronized.
type session struct {
	*Tuner
	space    *conf.Space
	targetGB float64
	rep      *Report
	tr       obs.Tracer
	// span is the current stage's span, the one record charges runs to.
	span obs.Span
	// prior is the usable warm-start prior, nil in a cold session.
	prior *Prior
	// fullRuns are the full-application sample runs — QCSA's input.
	fullRuns []sparksim.AppResult
	// into holds the per-query results of phase 2's latest run (runNext).
	into []sparksim.QueryResult
	// cut reports that halt ended the warm anchor batch short of its runs.
	cut bool
	// p1 is the phase-1 search result: the cold BO history, or the prior
	// observations followed by the warm anchors.
	p1 bo.Result
	// target is the application phase 2 runs: the RQA once reduce built it.
	target *sparksim.Application
	// sub is the important-parameter subspace phase 2 searches and init the
	// observations it starts from; p2 is its result.
	sub  *conf.Subspace
	init []bo.Step
	p2   bo.Result
	// ws is the surrogate's storage: both BO runs and both DAGP selections
	// fit in it, one after another. The session holds it from newSession
	// until Tune returns and hands it to the next session (workspaces), so
	// nothing the session reports may alias it: bo's results and the
	// configurations decoded from them are copies.
	ws *bo.Workspace
}

// newSession opens a session record in ws, its surrogate storage reserved
// for exactly phase 2's training set, the largest its BO runs and DAGP
// selections fit, whatever the workspace's last session reserved.
func (t *Tuner) newSession(targetGB float64, ws *bo.Workspace) *session {
	s := &session{
		Tuner: t, space: t.run.Space(), targetGB: targetGB, rep: &Report{},
		// Every stage opens a span on the injected tracer; the no-op default
		// makes this free.
		tr: obs.OrNop(t.opts.Tracer), prior: t.warmPrior(), target: t.app, ws: ws,
	}
	ws.Reset(s.initLen() + s.opts.MaxIter)
	return s
}

// phase1Runs is how many runs phase 1 executes: N_QCSA samples cold, a few
// fresh anchors warm.
func (s *session) phase1Runs() int {
	if s.prior == nil {
		return s.opts.NQCSA
	}
	return min(warmFreshRuns, s.opts.NQCSA)
}

// initLen is len(s.init) as restrict builds it, before phase 1 runs: every
// prior observation and phase-1 run (steps drops only unscalable ones).
func (s *session) initLen() int {
	n := s.phase1Runs()
	if s.prior != nil {
		n += len(s.prior.Obs)
	}
	return n
}

// begin opens the stage span the session charges runs to; the caller defers
// its End, which covers every return of the stage.
func (s *session) begin(name string) obs.Span {
	s.span = s.tr.Start(name)
	return s.span
}

// halt is the session's one stop hook, handed to bo.Minimize and to
// runner.RunBatch alike: it polls halted between evaluations, not only at
// stage boundaries — a session must not burn its remaining iteration budget
// on runs it cannot afford or that can only fail.
func (s *session) halt() bool { return s.halted(s.rep) != nil }

// sizeOf is the input size of the session's run-th tuning run.
func (s *session) sizeOf(run int) float64 {
	if s.opts.DataSchedule != nil {
		return s.opts.DataSchedule(run)
	}
	return s.targetGB
}

// ctx is the surrogate's context for an observation taken at dataGB.
func (s *session) ctx(dataGB float64) []float64 {
	if !s.opts.UseDAGP {
		return nil
	}
	return dagp.Ctx(dataGB)
}

func (s *session) ctxOf(run int) []float64 { return s.ctx(s.sizeOf(run)) }

// record books one executed run and returns its latency. It is the only
// place overhead, run counts, the history and the stage span are charged;
// sampling marks a phase-1 full-application sample run, as opposed to a
// phase-2 search run on the reduced application.
func (s *session) record(c conf.Config, dataGB float64, run sparksim.AppResult, sampling bool) float64 {
	rep := s.rep
	rep.OverheadSec += run.Sec
	s.span.Add(1, run.Sec)
	if sampling {
		rep.SamplingSec += run.Sec
		s.fullRuns = append(s.fullRuns, run)
	} else {
		rep.SearchSec += run.Sec
	}
	fullApp := sampling || !s.opts.UseQCSA
	if fullApp {
		rep.FullRuns++
	} else {
		rep.RQARuns++
	}
	rep.History = append(rep.History, Eval{
		Conf: c, DataGB: dataGB, Sec: run.Sec, FullApp: fullApp, QuerySecs: querySecs(run),
	})
	return run.Sec
}

// runNext executes app under c as the session's next run and records it.
// Every search run's per-query results go into the session's one buffer, into:
// record has read the last run's before the next run overwrites them. A
// sampling run's get a slice of their own, which fullRuns keeps for QCSA.
func (s *session) runNext(app *sparksim.Application, c conf.Config, sampling bool) float64 {
	dataGB := s.sizeOf(s.rep.Evaluations())
	if sampling {
		return s.record(c, dataGB, s.run.RunApp(app, c, dataGB), true)
	}
	if s.into == nil {
		s.into = make([]sparksim.QueryResult, 0, len(app.Queries))
	}
	return s.record(c, dataGB, s.run.RunAppAt(s.run.ReserveRuns(1), app, c, dataGB, s.into), false)
}

// sampleBatch fans independent full-application runs over the worker pool
// (Options.Workers simulated cluster slots) and reduces the results in index
// order, so the recorded history matches a serial runNext loop exactly. Run
// sizes are resolved against the evaluation counter before the batch starts,
// just as the serial loop would see them. complete is false when halt cut
// the batch short after a prefix.
func (s *session) sampleBatch(cs []conf.Config) (ys []float64, complete bool) {
	evalBase := s.rep.Evaluations()
	sizes := make([]float64, len(cs))
	for i := range cs {
		sizes[i] = s.sizeOf(evalBase + i)
	}
	runs, done := runner.RunBatch(s.run, s.app, cs, func(i int) float64 { return sizes[i] }, s.opts.Workers, s.halt)
	ys = make([]float64, done)
	for i := 0; i < done; i++ {
		ys[i] = s.record(cs[i], sizes[i], runs[i], true)
	}
	return ys, done == len(cs)
}

// steps turns everything the session knows — the prior observations, then
// its own history — into BO steps. encode maps a configuration into the
// decision space; scale re-expresses a run's latency from its per-query
// latencies and total, or drops the observation.
func (s *session) steps(encode func(conf.Config) []float64, scale func(qs map[string]float64, total float64) (float64, bool)) []bo.Step {
	var out []bo.Step
	add := func(c conf.Config, dataGB, sec float64, qs map[string]float64) {
		if y, ok := scale(qs, sec); ok {
			out = append(out, bo.Step{X: encode(c), Ctx: s.ctx(dataGB), Y: y})
		}
	}
	if s.prior != nil {
		for _, ob := range s.prior.Obs {
			add(ob.Conf, ob.DataGB, ob.Sec, ob.QuerySecs)
		}
	}
	for _, e := range s.rep.History {
		add(e.Conf, e.DataGB, e.Sec, e.QuerySecs)
	}
	return out
}

// sample is phase 1: collect full-application samples. Cold sessions run
// the paper's N_QCSA-iteration BO-with-DAGP loop. Warm sessions inherit prior
// observations and run only a few fresh anchor executions — the overhead
// reduction the history store buys.
func (s *session) sample() error {
	if s.prior == nil {
		s.logf("phase 1: collecting %d full-application samples (cold start)", s.opts.NQCSA)
		defer s.begin("phase1/sampling").End()
		p1 := bo.Problem{
			Dim:  s.space.Dim(),
			Eval: func(x, ctx []float64) float64 { return s.runNext(s.app, s.space.Decode(x), true) },
			// Phase 1 injects no Init steps, so bo's iteration index is the
			// session run index. Context must be a function of it — the batch
			// evaluator precomputes contexts before any run executes, when the
			// live evaluation counter still points at the batch start.
			Context: s.ctxOf,
		}
		// A third of the sample-collection budget goes to space-filling LHS
		// so the QCSA/IICP statistics see uncorrelated coverage; the rest is
		// EI-guided ("BO with DAGP", Figure 4) and begins improving the
		// incumbent early. The LHS block's points are independent, so the
		// batch evaluator runs them on concurrent simulated cluster slots.
		s.p1 = bo.Minimize(p1, bo.Options{
			InitPoints:  s.opts.NQCSA / 3,
			MinIter:     s.opts.NQCSA, // phase 1 always collects the full sample set
			MaxIter:     s.opts.NQCSA,
			EIStopFrac:  0, // no early stop while collecting samples
			MCMCSamples: s.opts.MCMCSamples,
			HyperEvery:  hyperEvery,
			Candidates:  400,
			Workers:     s.opts.Workers,
			Seed:        s.opts.Seed,
			Stop:        s.halt,
			Tracer:      s.opts.Tracer,
			Workspace:   s.ws,
			EvalBatch: func(xs, ctxs [][]float64) []float64 {
				cs := make([]conf.Config, len(xs))
				for i, x := range xs {
					cs[i] = s.space.Decode(x)
				}
				ys, _ := s.sampleBatch(cs)
				return ys
			},
		})
		return nil
	}
	s.rep.WarmStarted = true
	s.rep.PriorObsUsed = len(s.prior.Obs)
	fresh := s.phase1Runs()
	s.logf("phase 1: warm start from %d prior observations, %d fresh anchor runs",
		len(s.prior.Obs), fresh)
	defer s.begin("phase1/warm-anchors").End()
	rng := rand.New(rand.NewSource(s.opts.Seed))
	if _, complete := s.sampleBatch(s.space.LHS(fresh, rng)); !complete {
		s.cut = true
		return nil
	}
	// Prior observations and the fresh anchors together form the phase-1
	// history the DAGP base selection and the phase-2 warm start consume.
	s.p1.History = s.steps(s.space.Encode, func(_ map[string]float64, total float64) (float64, bool) { return total, true })
	s.p1.BestY = math.Inf(1)
	for _, st := range s.p1.History {
		if st.Y < s.p1.BestY {
			s.p1.BestY = st.Y
			s.p1.BestX = st.X
		}
	}
	return nil
}

// reduce is QCSA: build the reduced query application, from the prior's
// sensitivity analysis when there is one, else from the phase-1 runs.
func (s *session) reduce() error {
	if !s.opts.UseQCSA {
		return nil
	}
	defer s.begin("qcsa/reduce").End()
	if s.prior != nil && len(s.prior.Sensitive) > 0 {
		// Reuse the past session's sensitivity analysis verbatim.
		keep := map[string]bool{}
		for _, n := range s.prior.Sensitive {
			keep[n] = true
		}
		s.target = s.app.Subset(keep)
		s.rep.QCSA = &qcsa.Result{
			Sensitive: append([]string(nil), s.prior.Sensitive...),
			RQA:       s.target,
		}
		s.logf("qcsa: reusing %d sensitive queries from prior session", len(s.prior.Sensitive))
		return nil
	}
	qres, err := qcsa.Analyze(s.app, s.fullRuns)
	if err != nil {
		return err
	}
	s.rep.QCSA, s.target = qres, qres.RQA
	s.logf("qcsa: kept %d/%d configuration-sensitive queries",
		len(qres.Sensitive), len(s.app.Queries))
	return nil
}

// rqaSec re-expresses a run on the scale of the reduced query application:
// per-query latencies are recorded, so the RQA portion of a full run is
// known exactly; a run lacking them cannot be re-expressed. The sum runs in
// application order: float addition does not commute to the last bit, and a
// map's order changes from run to run.
func (s *session) rqaSec(qs map[string]float64, total float64) (float64, bool) {
	if !s.opts.UseQCSA {
		return total, true
	}
	if qs == nil {
		return 0, false
	}
	var sec float64
	for _, q := range s.target.Queries {
		sec += qs[q.Name]
	}
	return sec, true
}

// restrict is IICP: restrict the search space to the important parameters
// around the phase-1 base, and re-express every known observation in it.
func (s *session) restrict() error {
	base := s.selectBase()
	tuneIdx, err := s.important()
	if err != nil {
		return err
	}
	if s.sub, err = conf.NewSubspace(s.space, base, tuneIdx); err != nil {
		return err
	}
	// Warm-start phase 2 with every known observation re-expressed on the
	// RQA scale; prior observations lacking per-query data are dropped
	// rather than mis-scaled.
	s.init = s.steps(s.sub.Encode, s.rqaSec)
	return nil
}

// selectBase chooses the phase-2 base, which pins every non-important
// parameter, by DAGP posterior mean over the phase-1 observations rather
// than by the noisy observed minimum. In the warm path p1.History leads with
// the prior observations — exactly the FitTransferWorkers base.
func (s *session) selectBase() conf.Config {
	defer s.begin("dagp/select-base").End()
	return s.space.Decode(s.rank(s.p1, s.rep.PriorObsUsed, 3))
}

// important returns the parameter indices phase 2 tunes: the prior's IICP
// result, a fresh analysis of the samples, or every parameter.
func (s *session) important() ([]int, error) {
	if !s.opts.UseIICP {
		return allIndices(s.space.Dim()), nil
	}
	defer s.begin("iicp/select").End()
	if s.prior != nil && len(s.prior.Important) > 0 {
		s.rep.IICP = &iicp.Result{Important: append([]int(nil), s.prior.Important...)}
		s.logf("iicp: reusing %d important parameters from prior session", len(s.prior.Important))
		return append([]int(nil), s.prior.Important...), nil
	}
	var samples []iicp.Sample
	for _, e := range s.rep.History {
		samples = append(samples, iicp.Sample{Conf: e.Conf, Sec: e.Sec})
	}
	n := s.opts.NIICP
	if s.prior != nil {
		// A warm session's few anchors are not enough for stable parameter
		// statistics; fold the prior observations in.
		for _, ob := range s.prior.Obs {
			samples = append(samples, iicp.Sample{Conf: ob.Conf, Sec: ob.Sec})
		}
		n = len(samples)
	}
	// iicp's defaults carry the paper's CPS Spearman threshold, 0.2.
	ires, err := iicp.Analyze(s.space, samples[:min(n, len(samples))], iicp.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s.rep.IICP = ires
	tuneIdx := ires.Important
	if len(tuneIdx) == 0 {
		tuneIdx = allIndices(s.space.Dim())
	}
	s.logf("iicp: selected %d important parameters", len(tuneIdx))
	return tuneIdx, nil
}

// search is phase 2: BO over the important-parameter subspace on the RQA.
func (s *session) search() error {
	s.logf("phase 2: subspace BO over %d parameters (%d warm observations)", s.sub.Dim(), len(s.init))
	defer s.begin("phase2/search").End()
	p2 := bo.Problem{
		Dim:  s.sub.Dim(),
		Eval: func(x, ctx []float64) float64 { return s.runNext(s.target, s.sub.Decode(x), false) },
		// Phase 2 evaluates serially (no EvalBatch), so Context is called
		// immediately before each Eval and the live counter is the session
		// run index the data schedule expects. bo's own iteration index would
		// be wrong here: it counts the injected Init steps (prior
		// observations included), not this session's executed runs.
		Context: func(it int) []float64 { return s.ctxOf(s.rep.Evaluations()) },
	}
	s.p2 = bo.Minimize(p2, bo.Options{
		InitPoints:  3,
		MinIter:     s.opts.MinIter,
		MaxIter:     s.opts.MaxIter,
		EIStopFrac:  s.opts.EIStopFrac,
		MCMCSamples: s.opts.MCMCSamples,
		HyperEvery:  hyperEvery,
		Candidates:  800,
		Workers:     s.opts.Workers,
		Init:        s.init,
		Seed:        s.opts.Seed + 1,
		Stop:        s.halt,
		Tracer:      s.opts.Tracer,
		Workspace:   s.ws,
	})
	return nil
}

// finish is the final selection. For a warm session the init steps (prior
// observations re-expressed on the RQA scale plus the phase-1 anchors) are
// the transfer base.
func (s *session) finish() error {
	defer s.begin("final/select").End()
	s.conclude(s.sub.Decode(s.rank(s.p2, len(s.init), 2)))
	rep := s.rep
	s.logf("done: %d runs, %.0f s overhead (%.0f sampling + %.0f search), tuned latency %.0f s",
		rep.Evaluations(), rep.OverheadSec, rep.SamplingSec, rep.SearchSec, rep.TunedSec)
	return nil
}

// degrade finishes a session cut short mid-way — backend gone
// sticky-faulty, or the Halt hook's cause (a deadline, a budget): the
// report keeps everything the session measured and recommends the best
// full-application configuration actually observed (prior observations
// included for warm sessions) rather than failing — cluster time already
// paid for those samples. A session cut short before any successful run
// leaves nothing to recommend and fails with the cause; one the caller
// cancelled (ErrStopped) is discarded, not degraded.
func (s *session) degrade(cause error) (*Report, error) {
	if errors.Is(cause, ErrStopped) {
		return nil, ErrStopped
	}
	var best conf.Config
	bestSec := math.Inf(1)
	if s.prior != nil {
		for _, ob := range s.prior.Obs {
			if ob.Sec > 0 && ob.Sec < bestSec {
				best, bestSec = ob.Conf, ob.Sec
			}
		}
	}
	// Failed runs report zero seconds; they are observations of nothing and
	// must not win. Only full-application runs qualify — an RQA latency is
	// on a different scale.
	for _, e := range s.rep.History {
		if e.FullApp && e.Sec > 0 && e.Sec < bestSec {
			best, bestSec = e.Conf, e.Sec
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: session ended before any successful sample run: %w", cause)
	}
	s.rep.Degraded = cause.Error()
	s.conclude(best)
	s.logf("degraded: %v; returning best of %d observed runs (%.0f s observed)",
		cause, s.rep.Evaluations(), bestSec)
	return s.rep, nil
}

// conclude evaluates the recommendation and pins the session's floor: it is
// never worse than the default configuration the session started from. When
// best evaluates slower than the default at the target size, the default
// wins and the report says so — "tuned" must never mean "worse".
// NoiselessAppTime models execution without touching the backend, so a
// session degraded by a dead one still gets an evaluated latency and the
// same guardrail.
func (s *session) conclude(best conf.Config) {
	rep := s.rep
	rep.Best = best
	rep.TunedSec = s.run.NoiselessAppTime(s.app, best, s.targetGB)
	def := s.space.Default()
	rep.BaselineSec = s.run.NoiselessAppTime(s.app, def, s.targetGB)
	if rep.BaselineSec > 0 && rep.TunedSec > rep.BaselineSec {
		s.logf("guardrail: selected configuration (%.0f s) loses to the default (%.0f s); recommending the default",
			rep.TunedSec, rep.BaselineSec)
		rep.Best, rep.TunedSec, rep.FellBack = def, rep.BaselineSec, true
	}
}

// dagpRank fits a DAGP on the steps and returns the decision point with the
// lowest posterior mean at targetGB — the de-noised, size-transferred
// incumbent. ok is false when the model cannot be fitted. warmN is the
// number of leading steps that came from a warm-start prior: when positive,
// hyperparameters are inferred on that prior alone and the session's own
// runs arrive as a batch append (dagp.FitTransferWorkers), so the MCMC's
// repeated cubic refits do not grow with the session length. workers bounds
// the inference parallelism (Options.Workers; results are identical for every
// worker count).
func dagpRank(ws *gp.Workspace, hist []bo.Step, warmN int, targetGB float64, seed int64, workers int) (best []float64, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	var ds []dagp.Sample
	for _, s := range hist {
		size := targetGB
		if len(s.Ctx) > 0 {
			size = s.Ctx[0] * dagp.ScaleGB
		}
		ds = append(ds, dagp.Sample{X: s.X, DataGB: size, Sec: s.Y})
	}
	if warmN >= len(ds) {
		warmN = 0
	}
	model, err := dagp.FitIn(ws, ds[:warmN], ds[warmN:], rng, workers)
	if err != nil {
		return nil, false
	}
	// Rank every evaluated point by posterior mean at the target size in one
	// batched prediction instead of a per-point Predict loop.
	xs := make([][]float64, len(hist))
	for i, s := range hist {
		xs[i] = s.X
	}
	means := model.PredictBatch(xs, targetGB, &ws.Predict)
	bestPred := math.Inf(1)
	for i, m := range means {
		if m < bestPred {
			bestPred = m
			best = hist[i].X
		}
	}
	return best, best != nil
}

// rank returns the decision point of res the session trusts most. Without
// DAGP that is the best observed point; with DAGP the surrogate's posterior
// mean at the target size ranks every evaluated point, which both de-noises
// the selection (single runs are noisy; the GP pools information across
// neighbours) and transfers observations taken at other data sizes to the
// target size (Section 3.4's online adaptation) — falling back to the
// observed best when the model cannot be fitted. warmN is the number of
// leading steps a warm session inherited (see dagpRank); in a cold one every
// step is the session's own. seedOffset keeps the rng streams of the two
// selections apart: 3 for the phase-2 base, 2 for the final configuration.
func (s *session) rank(res bo.Result, warmN int, seedOffset int64) []float64 {
	if s.prior == nil {
		warmN = 0
	}
	if s.opts.UseDAGP {
		if x, ok := dagpRank(&s.ws.Workspace, res.History, warmN, s.targetGB, s.opts.Seed+seedOffset, s.opts.Workers); ok {
			return x
		}
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
