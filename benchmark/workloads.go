package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"locat"
	"locat/internal/baselines"
	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/obs"
	"locat/internal/runner"
	"locat/internal/service"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// workloadTable lists the workloads in reporting order. The why strings are
// the ones BENCHMARK.json carries.
var workloadTable = []workload{
	{
		name:    "cold_tune",
		why:     "cold full-budget sessions through locat.Tune: bo, gp and mat do nearly all the work, service and the store none",
		tailCap: 50,
		setup:   setupColdTune,
	},
	{
		name:    "warm_serve",
		why:     "warm-started sessions over HTTP on a seeded FileStore: prior retrieval, transfer GP on 48 prior observations, checkpoints, persist",
		tailCap: 50,
		setup:   setupWarmServe,
	},
	{
		name:    "recommend_read",
		why:     "POST /v1/recommend on a seeded store, zero sample runs: k-NN scan, shard decode, blend and the HTTP handler do all the work",
		tailCap: 99,
		setup:   setupRecommendRead,
	},
	{
		name:    "history_churn",
		why:     "a tiny session then five recommends for the size just written: store writes and index rewrites beside reads, which a read cache must not slow",
		tailCap: 90,
		setup:   setupHistoryChurn,
	},
	{
		name:    "baseline_compare",
		why:     "DAC, GBO-RL and QTune on four problems, about 1000 simulator runs and a 150-tree GBRT each: sparksim, ml and baselines dominate, gp does nothing",
		tailCap: 50,
		setup:   setupBaselineCompare,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unitFloat is a number in [0,1) that depends only on the seed and the
// operation index, so an operation's input does not depend on how many
// operations ran before it.
func unitFloat(seed int64, i int) float64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Float64()
}

func clusterOf(name string) *sparksim.Cluster {
	if name == "x86" {
		return sparksim.X86()
	}
	return sparksim.ARM()
}

// simSpeedup evaluates a configuration on the noise-free simulator and
// returns default latency ÷ its latency.
func simSpeedup(p problem, c conf.Config, gb float64) (float64, error) {
	app, err := workloads.ByName(p.benchmark)
	if err != nil {
		return 0, err
	}
	sim := sparksim.New(clusterOf(p.cluster), 1)
	return sim.NoiselessAppTime(app, sim.Space().Default(), gb) / sim.NoiselessAppTime(app, c, gb), nil
}

// ---- cold_tune ----

// Cold sessions run at 300 GB with the paper's sample counts and 30 search
// iterations. At 300 GB the expected-improvement stop never fires before the
// cap (at 100 GB it fires at a seed-dependent iteration between 10 and 60,
// which makes a session last anything from 0.25 to 2 s), so every session is
// 60 runs and the surrogate grows to 60 points: the same code as a full
// paper-budget session, at a length that does not depend on the seed.
var coldBudget = budget{nqcsa: 30, niicp: 20, iters: 30}

const coldGB = 300

// coldProblems alternates clusters so that a partial second cycle stays
// balanced.
var coldProblems = []problem{
	{"arm", "TPC-DS"}, {"x86", "TPC-H"}, {"arm", "Join"}, {"x86", "Aggregation"},
	{"x86", "TPC-DS"}, {"arm", "TPC-H"}, {"x86", "Join"}, {"arm", "Aggregation"},
}

type coldTune struct {
	cfg config
	rec *recorder
	b   budget
}

func setupColdTune(env *env) (instance, error) {
	c := &coldTune{cfg: env.cfg, rec: env.rec, b: coldBudget.scaled(env.cfg.scale)}
	// One untimed session: first use builds the workload and parameter
	// tables and grows the heap to its working size.
	if r := c.session(coldProblems[0], c.cfg.seed); len(r.failures) > 0 {
		return nil, fmt.Errorf("warm-up session: %s", r.failures[0])
	}
	return c, nil
}

func (c *coldTune) cycle() int { return len(coldProblems) }
func (c *coldTune) long() bool { return true }
func (c *coldTune) close()     {}

func (c *coldTune) op(i int) opResult {
	return c.session(coldProblems[i%len(coldProblems)], c.cfg.seed+int64(i))
}

func (c *coldTune) verify([]opResult) verdict { return verdict{} }

func (c *coldTune) session(p problem, seed int64) opResult {
	return tuneSession(c.rec, locat.Options{
		Cluster: p.cluster, Benchmark: p.benchmark, DataSizeGB: coldGB, Seed: seed,
		NQCSA: c.b.nqcsa, NIICP: c.b.niicp, MaxIterations: c.b.iters, Quiet: true,
	})
}

// tuneSession runs one cold session through the facade. When spans are
// being recorded it runs the same pipeline through core directly, because
// the facade returns its phase spans merged by name and without start
// times; the direct call hands core the same kind of timeline and adds a
// run observer at the backend seam.
func tuneSession(rec *recorder, o locat.Options) opResult {
	failed := func(err error) opResult { return opResult{sessions: 1, failures: []string{err.Error()}} }
	var params map[string]float64
	var tuned, def, cluster float64
	if rec.on() {
		start := time.Now()
		app, err := workloads.ByName(o.Benchmark)
		if err != nil {
			return failed(err)
		}
		sim := sparksim.New(clusterOf(o.Cluster), o.Seed)
		run := runner.Observe(runner.NewSim(sim), &runSpans{rec: rec})
		opts := core.DefaultOptions()
		opts.Seed, opts.NQCSA, opts.NIICP, opts.MaxIter = o.Seed, o.NQCSA, o.NIICP, o.MaxIterations
		origin := time.Now()
		tl := obs.NewTimeline()
		opts.Tracer = tl
		rep, err := core.New(run, app, opts).Tune(o.DataSizeGB)
		if err != nil {
			return failed(err)
		}
		rec.addTimeline(origin, tl.Snapshot())
		rec.add("facade.session", start, time.Now(), 0)
		params = map[string]float64{}
		for i, p := range conf.Params() {
			params[p.Name] = rep.Best[i]
		}
		tuned, cluster = rep.TunedSec, rep.OverheadSec
		def = sim.NoiselessAppTime(app, sim.Space().Default(), o.DataSizeGB)
	} else {
		res, err := locat.Tune(o)
		if err != nil {
			return failed(err)
		}
		params, tuned, def, cluster = res.BestParams, res.TunedSeconds, res.DefaultSeconds, res.OverheadSeconds
	}
	r := opResult{
		sessions: 1, clusterSec: cluster,
		speedups: []float64{def / tuned},
		digest:   sessionDigest(params, tuned, cluster),
	}
	if !(tuned > 0 && tuned <= def) {
		r.failures = append(r.failures, fmt.Sprintf("tuned %.3f s is not within (0, default %.3f s]", tuned, def))
	}
	return r
}

// ---- warm_serve ----

// Warm sessions ask for sizes in bucket 7, whose own key and both
// neighbouring keys are seeded, so every session finds more prior
// observations than the 48 it may use. Ten search iterations is the
// expected-improvement rule's own minimum, so the session length does not
// depend on the seed.
const (
	warmMinGB = 110
	warmMaxGB = 155
	warmIters = 10
)

type warmServe struct {
	*server
	cfg      config
	problems []problem
}

func setupWarmServe(env *env) (instance, error) {
	s, err := startServer(env)
	if err != nil {
		return nil, err
	}
	return &warmServe{server: s, cfg: env.cfg, problems: allProblems()}, nil
}

func (w *warmServe) cycle() int { return len(w.problems) }
func (w *warmServe) long() bool { return true }

func (w *warmServe) op(i int) opResult {
	p := w.problems[i%len(w.problems)]
	res, _, err := w.runJob(service.JobSpec{
		Cluster: p.cluster, Benchmark: p.benchmark,
		DataSizeGB:    warmMinGB + (warmMaxGB-warmMinGB)*unitFloat(w.cfg.seed, i),
		Seed:          w.cfg.seed + int64(i),
		MaxIterations: budget{iters: warmIters}.scaled(w.cfg.scale).iters,
	})
	r := sessionResult(res, err)
	if err == nil && !(res.WarmStarted && res.PriorObsUsed > 0) {
		r.failures = append(r.failures, fmt.Sprintf("not warm-started (warm_started=%v, prior_obs_used=%d)", res.WarmStarted, res.PriorObsUsed))
	}
	return r
}

func (w *warmServe) verify([]opResult) verdict { return verdict{} }

// ---- recommend_read ----

type recommendRead struct {
	*server
	cfg      config
	problems []problem
	lo, nb   int
	// served keeps the first cycle's requests and answers for verify.
	served []servedRec
}

type servedRec struct {
	p   problem
	gb  float64
	cfg conf.Config
}

func setupRecommendRead(env *env) (instance, error) {
	s, err := startServer(env)
	if err != nil {
		return nil, err
	}
	lo, hi := seedBucketRange(env.cfg.scale)
	return &recommendRead{server: s, cfg: env.cfg, problems: allProblems(), lo: lo, nb: hi - lo + 1}, nil
}

func (r *recommendRead) cycle() int { return len(r.problems) * r.nb }
func (r *recommendRead) long() bool { return false }

// bucketSize is a size inside the bucket: 0.8–1.3 × 2^bucket.
func bucketSize(bucket int, u float64) float64 {
	return math.Exp2(float64(bucket)) * (0.8 + 0.5*u)
}

func (r *recommendRead) op(i int) opResult {
	k := i % r.cycle()
	p := r.problems[k%len(r.problems)]
	gb := bucketSize(r.lo+k/len(r.problems), unitFloat(r.cfg.seed, i))
	rec, err := r.target.Recommend(service.RecommendRequest{
		JobSpec:    service.JobSpec{Cluster: p.cluster, Benchmark: p.benchmark, DataSizeGB: gb},
		NoFallback: true,
	})
	if err != nil {
		return opResult{failures: []string{err.Error()}}
	}
	if i < r.cycle() && len(rec.BestConfig) > 0 {
		r.served = append(r.served, servedRec{p, gb, rec.BestConfig})
	}
	return opResult{
		digest:   fmt.Sprintf("%v;n=%d;conf=%v", rec.BestConfig, len(rec.Neighbors), rec.Confidence),
		failures: checkRecommendation(rec, clusterOf(p.cluster).Space()),
	}
}

// verify evaluates every configuration the first cycle served, which a
// 2 ms operation cannot do itself.
func (r *recommendRead) verify([]opResult) verdict {
	var v verdict
	for i, s := range r.served {
		sp, err := simSpeedup(s.p, s.cfg, s.gb)
		if err != nil {
			v.failures = append(v.failures, fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		v.speedups = append(v.speedups, sp)
	}
	return v
}

// ---- history_churn ----

var churnBudget = budget{nqcsa: 6, niicp: 4, iters: 2}

const churnReads = 5

type historyChurn struct {
	*server
	cfg      config
	problems []problem
	lo, nb   int
}

func setupHistoryChurn(env *env) (instance, error) {
	s, err := startServer(env)
	if err != nil {
		return nil, err
	}
	lo, hi := seedBucketRange(env.cfg.scale)
	return &historyChurn{server: s, cfg: env.cfg, problems: allProblems(), lo: lo, nb: hi - lo + 1}, nil
}

// cycle is every problem under both technique sets, twice; the size bucket
// moves on with every round. Forty nine-run sessions are what it takes for
// the geomean of their speed-ups to stay within a tenth from seed to seed.
func (h *historyChurn) cycle() int { return 4 * len(h.problems) }
func (h *historyChurn) long() bool { return false }

func (h *historyChurn) op(i int) opResult {
	p := h.problems[i%len(h.problems)]
	spec := service.JobSpec{
		Cluster: p.cluster, Benchmark: p.benchmark,
		DataSizeGB:  bucketSize(h.lo+i%h.nb, unitFloat(h.cfg.seed, i)),
		DisableDAGP: (i/len(h.problems))%2 == 1,
	}
	job := spec
	job.Seed = h.cfg.seed + int64(i)
	job.NQCSA, job.NIICP, job.MaxIterations = churnBudget.nqcsa, churnBudget.niicp, churnBudget.iters
	job.ColdStart = true
	res, id, err := h.runJob(job)
	r := sessionResult(res, err)
	space := clusterOf(p.cluster).Space()
	for k := 0; k < churnReads; k++ {
		rec, err := h.target.Recommend(service.RecommendRequest{JobSpec: spec, NoFallback: true})
		if err != nil {
			r.failures = append(r.failures, err.Error())
			continue
		}
		r.failures = append(r.failures, checkRecommendation(rec, space)...)
		if k == 0 {
			r.digest += fmt.Sprintf("|%v", rec.BestConfig)
			seen := false
			for _, n := range rec.Neighbors {
				seen = seen || n.JobID == id
			}
			if id != "" && !seen {
				r.failures = append(r.failures, fmt.Sprintf("first recommend after the write does not list job %s: %+v", id, rec.Neighbors))
			}
		}
	}
	return r
}

// verify checks that churn neither lost nor leaked a key: every round wrote
// under a seeded key.
func (h *historyChurn) verify([]opResult) verdict {
	keys, err := h.store.Keys()
	if err != nil {
		return verdict{failures: []string{err.Error()}}
	}
	if len(keys) != h.seedKeys {
		return verdict{failures: []string{fmt.Sprintf("store holds %d keys, want the %d seeded", len(keys), h.seedKeys)}}
	}
	return verdict{}
}

// ---- baseline_compare ----

// compareProblems are the four comparisons; 300 GB for the reason given at
// coldBudget, since verify runs one LOCAT session per problem.
var compareProblems = []problem{
	{"arm", "TPC-H"}, {"x86", "TPC-DS"}, {"arm", "Join"}, {"x86", "Aggregation"},
}

// timedBaselines are the baselines an operation runs and times. Tuneful is
// kept out of the clock: its Bayesian-optimisation tail stops at iteration
// 100 or runs on to 200 on a coin flip of the seed (177 or 277 runs, 0.9 or
// 2.9 s), which no spread bound survives. It runs in verify, where the
// comparison with LOCAT is made, and there on the first problem only: at
// 1 to 3 s a problem it would otherwise cost as much as the measured phase,
// and on none of the four problems is it ever the cheapest baseline.
var timedBaselines = map[string]bool{"DAC": true, "GBO-RL": true, "QTune": true}

type baselineCompare struct {
	cfg config
	rec *recorder
	// cheapest is the lowest timed-baseline overhead per first-cycle problem.
	cheapest []float64
}

func setupBaselineCompare(env *env) (instance, error) {
	b := &baselineCompare{cfg: env.cfg, rec: env.rec}
	if r := b.run(0, false); len(r.failures) > 0 { // untimed, as in cold_tune
		return nil, fmt.Errorf("warm-up comparison: %s", r.failures[0])
	}
	return b, nil
}

func (b *baselineCompare) cycle() int { return len(compareProblems) }
func (b *baselineCompare) long() bool { return true }
func (b *baselineCompare) close()     {}

func (b *baselineCompare) op(i int) opResult { return b.run(i, i < b.cycle()) }

// tuners returns fresh baselines, shrunk for smoke tests.
func (b *baselineCompare) tuners() []baselines.Tuner {
	all := baselines.All()
	for _, t := range all {
		switch t := t.(type) {
		case *baselines.Tuneful:
			t.BOIter = shrink(t.BOIter, b.cfg.scale, 6)
		case *baselines.DAC:
			t.TrainRuns = shrink(t.TrainRuns, b.cfg.scale, 12)
			t.Generations = shrink(t.Generations, b.cfg.scale, 2)
		}
	}
	return all
}

// tune runs one baseline on problem i's backend stream.
func (b *baselineCompare) tune(bt baselines.Tuner, i int) (*baselines.Report, float64, error) {
	p := compareProblems[i%len(compareProblems)]
	app, err := workloads.ByName(p.benchmark)
	if err != nil {
		return nil, 0, err
	}
	seed := b.cfg.seed + int64(i)
	sim := sparksim.New(clusterOf(p.cluster), seed)
	run := runner.Runner(runner.NewSim(sim))
	if b.rec.on() {
		run = runner.Observe(run, &runSpans{rec: b.rec})
	}
	start := time.Now()
	rep, err := bt.Tune(run, app, coldGB, seed+7)
	if err != nil {
		return nil, 0, err
	}
	b.rec.add("baselines."+bt.Name(), start, time.Now(), 0)
	return rep, sim.NoiselessAppTime(app, sim.Space().Default(), coldGB), nil
}

func (b *baselineCompare) run(i int, keep bool) opResult {
	var r opResult
	cheapest := math.Inf(1)
	for _, bt := range b.tuners() {
		if !timedBaselines[bt.Name()] {
			continue
		}
		r.sessions++
		rep, def, err := b.tune(bt, i)
		if err != nil {
			r.failures = append(r.failures, bt.Name()+": "+err.Error())
			continue
		}
		if !(rep.TunedSec > 0) {
			r.failures = append(r.failures, fmt.Sprintf("%s: tuned latency %v", bt.Name(), rep.TunedSec))
			continue
		}
		r.clusterSec += rep.OverheadSec
		r.speedups = append(r.speedups, def/rep.TunedSec)
		r.digest += fmt.Sprintf("%s:%v:%v:%v;", bt.Name(), rep.Best, rep.TunedSec, rep.OverheadSec)
		cheapest = math.Min(cheapest, rep.OverheadSec)
	}
	if keep {
		b.cheapest = append(b.cheapest, cheapest)
	}
	return r
}

// verify completes the paper's comparison on the first cycle's problems:
// Tuneful and one LOCAT session each, and the ratio of the cheapest
// baseline's optimisation time to LOCAT's.
func (b *baselineCompare) verify(first []opResult) verdict {
	v := verdict{layer: map[string]float64{}}
	lb := coldBudget.scaled(b.cfg.scale)
	var ratios, tunefulS []float64
	for i := range first {
		p := compareProblems[i]
		cheapest := b.cheapest[i]
		for _, bt := range b.tuners() {
			if timedBaselines[bt.Name()] || i > 0 {
				continue
			}
			start := time.Now()
			rep, def, err := b.tune(bt, i)
			if err != nil {
				v.failures = append(v.failures, fmt.Sprintf("%s on %v: %v", bt.Name(), p, err))
				continue
			}
			tunefulS = append(tunefulS, time.Since(start).Seconds())
			v.speedups = append(v.speedups, def/rep.TunedSec)
			cheapest = math.Min(cheapest, rep.OverheadSec)
		}
		res, err := locat.Tune(locat.Options{
			Cluster: p.cluster, Benchmark: p.benchmark, DataSizeGB: coldGB, Seed: b.cfg.seed + int64(i),
			NQCSA: lb.nqcsa, NIICP: lb.niicp, MaxIterations: lb.iters, Quiet: true,
		})
		if err != nil {
			v.failures = append(v.failures, fmt.Sprintf("LOCAT on %v: %v", p, err))
			continue
		}
		if res.TunedSeconds > res.DefaultSeconds {
			v.failures = append(v.failures, fmt.Sprintf("LOCAT on %v: tuned %.3f s above default %.3f s", p, res.TunedSeconds, res.DefaultSeconds))
		}
		v.speedups = append(v.speedups, res.DefaultSeconds/res.TunedSeconds)
		ratios = append(ratios, cheapest/res.OverheadSeconds)
	}
	v.layer["baselines.tuneful_s"] = mean(tunefulS)
	v.layer["baselines.opt_time_ratio"] = geomean(ratios)
	// Smoke budgets are too small for the comparison to mean anything.
	if b.cfg.scale >= 1 && !(geomean(ratios) > 1) {
		v.failures = append(v.failures, fmt.Sprintf("opt_time_ratio %.3f: LOCAT is not cheaper than the cheapest baseline", geomean(ratios)))
	}
	return v
}
