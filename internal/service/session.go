package service

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/progress"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// runJobSafe contains session panics: an execution backend may fail hard
// mid-run (a trace replay that misses under MissFail panics by contract),
// and one poisoned job must not take the whole service down.
func (s *Service) runJobSafe(j *job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: job aborted: %v", r)
		}
	}()
	return s.runJob(j)
}

// runJob executes one tuning session: retrieve a prior from the history
// store, run the core pipeline, persist the outcome.
func (s *Service) runJob(j *job) (*JobResult, error) {
	spec := j.spec
	f, err := s.factory(spec.Backend)
	if err != nil {
		return nil, err
	}
	// The stream key is the job ID: deterministic for a deterministic
	// submission sequence, which is what record/replay of a whole service
	// run requires.
	cl, err := sparksim.ClusterByName(spec.Cluster)
	if err != nil {
		return nil, err
	}
	raw, err := f.New(cl, spec.Seed, j.id)
	if err != nil {
		return nil, err
	}
	// Fault layers, innermost first: chaos faults individual executions on a
	// deterministic schedule, and the retry wrapper heals its transient
	// drops (tripping a circuit breaker on persistent failure). Both are
	// absent unless chaos is configured — the plain chain stays bit-exact
	// with recorded traces.
	inner := runner.Runner(raw)
	var breakerTripped atomic.Bool
	if s.cfg.Chaos != nil {
		inner = runner.NewRetrying(runner.NewChaos(inner, *s.cfg.Chaos), runner.RetryOptions{
			Seed:    spec.Seed,
			OnRetry: s.metrics.retries.Inc,
			OnBreakerOpen: func() {
				breakerTripped.Store(true)
				s.metrics.breakerOpen.Add(1)
			},
		})
		defer func() {
			if breakerTripped.Load() {
				s.metrics.breakerOpen.Add(-1)
			}
		}()
	}
	// Every execution the session issues is charged to the job's tally and
	// the service-wide run metrics, then to any Config.Observers; the whole
	// chain is observational only, so replayed traces still match recorded
	// ones bit for bit.
	var tally runner.Tally
	watchers := append([]runner.RunObserver{&tally, s.metrics.runs}, s.cfg.Observers...)
	observed := runner.Observe(inner, watchers...)
	run := runner.Runner(observed)
	// The checkpoint cache sits outermost so resumed runs are served before
	// they reach the tally — a resumed session's Runs counts only what it
	// actually re-executed (the acceptance bar for resume is zero). The
	// tuner is deterministic given its seed and the results it observes, so
	// a resumed session re-requests exactly the runs it paid for, on every
	// backend: the checkpointed runs answer those requests verbatim, a live
	// cluster's included.
	var cache *runner.Cache
	var ckp *checkpointer
	if s.checkpointEvery > 0 {
		ckp = newCheckpointer(s.store, j, s.checkpointEvery, s.metrics, s.cfg.Logf)
		var paid []runner.TraceEntry
		if j.resume != nil {
			paid = j.resume.Entries
		}
		cache = runner.NewCache(run, paid, ckp.onRun)
		run = cache
	}

	// The deadline clock starts before prior retrieval: reading history is
	// part of the session. The worker tells a cancel from a drain afterwards.
	halt := limits(spec, time.Now(), func() bool { return j.cancelled.Load() || s.draining.Load() })

	// Every warm start reads its prior here — plain, refine, fallback,
	// retried or resumed — from the store as it stands now.
	var prior *core.Prior
	var seededFrom []Neighbor
	if !spec.ColdStart && !spec.DisableDAGP {
		prior, seededFrom, err = s.rec.Prior(spec)
		if err != nil {
			s.logf("[%s] history read failed: %v; starting cold", j.id, err)
		} else if prior != nil {
			s.logf("[%s] retrieved %d prior observations from %d history neighbors", j.id, len(prior.Obs), len(seededFrom))
		}
	}

	res, rep, err := RunSession(run, spec, func(opts *core.Options) {
		opts.Halt = halt
		opts.Logf = progress.Prefixed(s.cfg.Logf, "["+j.id+"] ")
		opts.Tracer = j.timeline
		opts.Prior = prior
	})
	if err != nil {
		if s.parked(j, err) && ckp != nil {
			// Persist the tail of the trajectory so the next incarnation
			// resumes from the exact stop point, not the last periodic flush.
			ckp.flush()
		}
		return nil, err
	}
	if rep.Degraded != "" {
		s.logf("[%s] degraded: %s; recommending best observed", j.id, rep.Degraded)
	}
	if res.WarmStarted {
		res.SeededFrom = seededFrom
	}
	res.Runs, res.ClusterSec = tally.Snapshot()
	if cache != nil {
		res.ResumedRuns = cache.ResumedRuns()
	}
	if err := s.persist(j, rep); err != nil {
		// The tuning result is still valid; losing the history entry only
		// costs future warm starts.
		s.logf("[%s] history store write failed: %v", j.id, err)
	}
	return res, nil
}

// limits builds a job's core.Options.Halt hook, the one home of the
// service's limits on a session. It answers the cluster-second budget, then
// the wall-clock deadline counted from start (both degrade the session), then
// core.ErrStopped once stopped reports a cancel or a drain.
func limits(spec JobSpec, start time.Time, stopped func() bool) func(spentSec float64) error {
	deadline := start.Add(time.Duration(spec.DeadlineSec * float64(time.Second)))
	return func(spentSec float64) error {
		switch {
		case spec.MaxClusterSec > 0 && spentSec >= spec.MaxClusterSec:
			return fmt.Errorf("core: cluster-second budget exhausted (%.0f s of %.0f s)", spentSec, spec.MaxClusterSec)
		case spec.DeadlineSec > 0 && time.Now().After(deadline):
			return errors.New("core: deadline exceeded")
		case stopped():
			return core.ErrStopped
		}
		return nil
	}
}

// RunSession is the session spine, shared by the service's workers and the
// locat.Tune facade: the one place a JobSpec becomes core.Options, a backend
// that failed without degrading the session becomes an error, and a
// core.Report becomes a JobResult. adjust, when non-nil, runs after the spec
// has been applied and sets what only the caller knows — the Halt hook
// (limits), logger, tracer, warm-start prior, data schedule, worker count —
// so nothing here depends on who called. Runs, ClusterSec, ResumedRuns and
// SeededFrom describe the caller's backend stack and retrieval; it fills them.
func RunSession(run runner.Runner, spec JobSpec, adjust func(*core.Options)) (*JobResult, *core.Report, error) {
	app, err := workloads.ByName(spec.Benchmark)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	if spec.NQCSA > 0 {
		opts.NQCSA = spec.NQCSA
	}
	if spec.NIICP > 0 {
		opts.NIICP = spec.NIICP
	}
	if spec.MaxIterations > 0 {
		opts.MaxIter = spec.MaxIterations
	}
	opts.UseQCSA, opts.UseIICP, opts.UseDAGP = !spec.DisableQCSA, !spec.DisableIICP, !spec.DisableDAGP
	if adjust != nil {
		adjust(&opts)
	}

	rep, err := core.New(run, app, opts).Tune(spec.DataSizeGB)
	if err != nil {
		return nil, nil, err
	}
	// A degraded report already accounts for the backend failure — the
	// session recommends the best configuration observed before death
	// instead of erroring out.
	if rep.Degraded == "" {
		if err := runner.BackendErr(run); err != nil {
			return nil, nil, fmt.Errorf("service: execution backend failed: %w", err)
		}
	}
	res := &JobResult{
		BestConfig:   rep.Best.Clone(),
		BestParams:   paramsToMap(rep.Best),
		TunedSec:     rep.TunedSec,
		DefaultSec:   rep.BaselineSec,
		OverheadSec:  rep.OverheadSec,
		SamplingSec:  rep.SamplingSec,
		SearchSec:    rep.SearchSec,
		FullRuns:     rep.FullRuns,
		RQARuns:      rep.RQARuns,
		WarmStarted:  rep.WarmStarted,
		PriorObsUsed: rep.PriorObsUsed,
		SparkConf:    sparkConfString(rep.Best),
		Degraded:     rep.Degraded,
		FellBack:     rep.FellBack,
	}
	if rep.QCSA != nil {
		res.SensitiveQueries = append([]string(nil), rep.QCSA.Sensitive...)
	}
	if rep.IICP != nil {
		res.ImportantParams = importantNames(rep.IICP.Important)
	}
	return res, rep, nil
}

// persist writes the finished session into the history store.
func (s *Service) persist(j *job, rep *core.Report) error {
	e := EntryOf(j.fp, j.id, time.Now().Unix(), j.spec.DataSizeGB, rep)
	if err := s.store.Put(e); err != nil {
		return err
	}
	// Index the fresh entry (and drop whatever the per-key cap evicted) so
	// the recommendation tier sees it immediately.
	s.rec.Add(e)
	return nil
}

// EntryOf is the history entry of a finished session that tuned for
// targetGB: the report's best configuration, QCSA / IICP artifacts and
// full-application observations, stored under fp as jobID's entry created at
// createdUnix (Unix seconds).
func EntryOf(fp Fingerprint, jobID string, createdUnix int64, targetGB float64, rep *core.Report) Entry {
	e := Entry{
		Fingerprint: fp,
		JobID:       jobID,
		CreatedUnix: createdUnix,
		TargetGB:    targetGB,
		TunedSec:    rep.TunedSec,
		OverheadSec: rep.OverheadSec,
		BestParams:  paramsToMap(rep.Best),
	}
	if rep.QCSA != nil {
		e.Sensitive = append([]string(nil), rep.QCSA.Sensitive...)
	}
	if rep.IICP != nil {
		e.Important = importantNames(rep.IICP.Important)
	}
	for _, ev := range rep.History {
		if !ev.FullApp {
			// RQA runs measure only the reduced application; persisting
			// them as full-app observations would corrupt future priors.
			continue
		}
		e.Obs = append(e.Obs, Observation{
			Params:    slices.Clone(ev.Conf),
			DataGB:    ev.DataGB,
			Sec:       ev.Sec,
			QuerySecs: ev.QuerySecs,
		})
	}
	return e
}

// sparkConfString renders a configuration in spark-defaults.conf syntax.
func sparkConfString(c conf.Config) string {
	var b strings.Builder
	_ = conf.FormatSparkConf(&b, c)
	return b.String()
}

// importantNames maps parameter indices to Spark property names.
func importantNames(idx []int) []string {
	params := conf.Params()
	out := make([]string, 0, len(idx))
	for _, j := range idx {
		if j >= 0 && j < len(params) {
			out = append(out, params[j].Name)
		}
	}
	return out
}

// paramsToMap converts a configuration vector to a name→value map.
func paramsToMap(c conf.Config) map[string]float64 {
	out := make(map[string]float64, len(c))
	for i, p := range conf.Params() {
		out[p.Name] = c[i]
	}
	return out
}
