package service

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/obs"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Priority is a job's scheduling class. Interactive work (recommend
// refinements, deadline-bounded tuning a user is waiting on) dispatches
// ahead of batch work, and under overload only batch jobs are shed.
type Priority string

// The two priority classes. Batch is the default: a plain tuning job is
// throughput work.
const (
	PriorityInteractive Priority = "interactive"
	PriorityBatch       Priority = "batch"
)

// JobSpec describes one tuning job: the wire format of the HTTP submit
// endpoint. RunSession turns its budgets and ablations into core.Options, and
// a service job's limits into a Halt hook. The public locat.Options renames
// its fields (locat.specOf) and adds what only a direct Tune call takes.
type JobSpec struct {
	// Tenant attributes the job to a tenant for per-tenant budget
	// enforcement (Config.Tenants). Empty is the anonymous tenant; tenants
	// do not partition the history store — warm-start sharing across
	// tenants is deliberate (same workload, same physics).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class: "interactive" dispatches ahead of
	// "batch" (the default) and is never shed under overload.
	Priority Priority `json:"priority,omitempty"`
	// DeadlineSec, when positive, bounds the job's wall-clock session time:
	// past the deadline the session stops at the next evaluation boundary
	// and returns its best-so-far configuration as a Degraded result.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// MaxClusterSec, when positive, bounds the simulated cluster seconds
	// the session may spend tuning — the deterministic twin of DeadlineSec
	// (overhead is part of the tuning trajectory, so the cutoff point is
	// reproducible bit for bit). Exceeding it degrades, like a deadline.
	MaxClusterSec float64 `json:"max_cluster_sec,omitempty"`
	// Cluster is "arm" (default) or "x86".
	Cluster string `json:"cluster,omitempty"`
	// Benchmark is one of locat.Benchmarks(); default "TPC-DS".
	Benchmark string `json:"benchmark,omitempty"`
	// DataSizeGB is the target input size; default 100.
	DataSizeGB float64 `json:"data_size_gb,omitempty"`
	// Seed makes the session reproducible; default 1.
	Seed int64 `json:"seed,omitempty"`
	// NQCSA, NIICP and MaxIterations override the paper's budgets.
	NQCSA         int `json:"n_qcsa,omitempty"`
	NIICP         int `json:"n_iicp,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
	// DisableQCSA / DisableIICP / DisableDAGP ablate the techniques.
	DisableQCSA bool `json:"disable_qcsa,omitempty"`
	DisableIICP bool `json:"disable_iicp,omitempty"`
	DisableDAGP bool `json:"disable_dagp,omitempty"`
	// ColdStart opts this job out of history retrieval: it runs the full
	// sampling pipeline even when similar past sessions exist.
	ColdStart bool `json:"cold_start,omitempty"`
	// Backend overrides the service's execution backend for this job (an
	// internal/runner spec: "sim", "record=PATH", "replay=PATH", or
	// "sparkrest=URL"). Empty uses the service default.
	Backend string `json:"backend,omitempty"`
}

func (s *JobSpec) normalize() error {
	if s.Priority == "" {
		s.Priority = PriorityBatch
	}
	if s.Priority != PriorityInteractive && s.Priority != PriorityBatch {
		return fmt.Errorf("service: unknown priority %q (want interactive or batch)", s.Priority)
	}
	if s.DeadlineSec < 0 {
		return errors.New("service: negative deadline")
	}
	if s.MaxClusterSec < 0 {
		return errors.New("service: negative cluster-second budget")
	}
	cl, err := sparksim.ClusterByName(s.Cluster)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.Cluster = cl.Name
	if s.Benchmark == "" {
		s.Benchmark = "TPC-DS"
	}
	if err := workloads.Check(s.Benchmark); err != nil {
		return err
	}
	if s.DataSizeGB == 0 {
		s.DataSizeGB = 100
	}
	if s.DataSizeGB < 0 {
		return errors.New("service: negative data size")
	}
	if math.IsNaN(s.DataSizeGB) || math.IsInf(s.DataSizeGB, 0) {
		return errors.New("service: data size is not a finite number")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if _, err := runner.ParseSpec(s.Backend); err != nil {
		return err
	}
	return nil
}

// State is a job's lifecycle position.
type State string

// Job lifecycle states. Terminal states are Succeeded, Failed, Cancelled,
// Shed and Suspended.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateShed marks a queued batch job displaced by an interactive
	// submission under overload: it never ran, by the service's own
	// admission decision rather than the caller's.
	StateShed State = "shed"
	// StateSuspended marks a job parked by a graceful drain: its progress is
	// checkpointed and a restart with Config.Resume requeues it under the
	// same ID. Terminal in this process, not for the job.
	StateSuspended State = "suspended"
)

// Terminal reports whether the state is final in this process.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCancelled, StateShed, StateSuspended:
		return true
	}
	return false
}

// stateInfo is one row of lifecycle.
type stateInfo struct {
	state State
	// count addresses the state's field of a census.
	count func(*Stats) *int
	// verdict is how Result explains a job that ended here without a result.
	verdict string
}

// lifecycle lists the seven states once, in the order a census presents them.
// The Stats census, the locat_jobs gauges, the locat_job_seconds histograms,
// the state= filter, /healthz and Result's error are all read off this table.
var lifecycle = []stateInfo{
	{StateQueued, func(c *Stats) *int { return &c.Queued }, ""},
	{StateRunning, func(c *Stats) *int { return &c.Running }, ""},
	{StateSucceeded, func(c *Stats) *int { return &c.Succeeded }, ""},
	{StateFailed, func(c *Stats) *int { return &c.Failed }, "failed: "}, // followed by the error text
	{StateCancelled, func(c *Stats) *int { return &c.Cancelled }, "cancelled"},
	{StateShed, func(c *Stats) *int { return &c.Shed }, "shed under overload; resubmit"},
	{StateSuspended, func(c *Stats) *int { return &c.Suspended }, "suspended by drain; resumes on restart"},
}

// info returns the state's lifecycle row (the zero row for a string that
// names no state).
func (s State) info() stateInfo {
	for i := range lifecycle {
		if lifecycle[i].state == s {
			return lifecycle[i]
		}
	}
	return stateInfo{}
}

// JobResult is the outcome of a finished tuning session, as RunSession maps
// it from the core.Report, and the wire shape of both result endpoints:
// GET /v1/jobs/{id} embeds it, GET /v1/jobs/{id}/result serves it behind a
// schema version. The JSON tags are a contract with clients.
type JobResult struct {
	// BestConfig is the tuned configuration vector (natural units).
	BestConfig conf.Config `json:"best_config"`
	// BestParams is the same configuration as a property→value map.
	BestParams map[string]float64 `json:"best_params"`
	// TunedSec and DefaultSec are the noiseless latencies under the tuned
	// configuration and the Spark defaults.
	TunedSec   float64 `json:"tuned_sec"`
	DefaultSec float64 `json:"default_sec"`
	// OverheadSec = SamplingSec + SearchSec is the simulated cluster time
	// tuning consumed (the paper's optimization time), split by phase.
	OverheadSec float64 `json:"overhead_sec"`
	SamplingSec float64 `json:"sampling_sec"`
	SearchSec   float64 `json:"search_sec"`
	// FullRuns and RQARuns count executions by kind.
	FullRuns int `json:"full_runs"`
	RQARuns  int `json:"rqa_runs"`
	// WarmStarted reports whether the session consumed history-store
	// observations instead of collecting the full sample set, and
	// PriorObsUsed how many.
	WarmStarted  bool `json:"warm_started"`
	PriorObsUsed int  `json:"prior_obs_used"`
	// SensitiveQueries and ImportantParams are the session's (possibly
	// inherited) QCSA / IICP artifacts.
	SensitiveQueries []string `json:"sensitive_queries,omitempty"`
	ImportantParams  []string `json:"important_params,omitempty"`
	// SparkConf is the tuned configuration rendered in spark-defaults.conf
	// syntax.
	SparkConf string `json:"spark_conf"`
	// Runs and ClusterSec are the execution tally the job's observed backend
	// accumulated: every run the session issued (full apps, single queries,
	// batch members) and the simulated cluster seconds they consumed. Runs
	// served from a resume checkpoint are not re-executed and appear in
	// ResumedRuns instead.
	Runs       int64   `json:"runs"`
	ClusterSec float64 `json:"cluster_sec"`
	// ResumedRuns counts executions served from the job's checkpoint
	// instead of re-executed after a restart.
	ResumedRuns int64 `json:"resumed_runs,omitempty"`
	// Degraded, when non-empty, records that the session was cut short —
	// backend death, an expired deadline, or an exhausted cluster-second
	// budget — and why; the result is the best configuration observed
	// before the cutoff.
	Degraded string `json:"degraded,omitempty"`
	// FellBack reports the session's guardrail replaced the selected
	// configuration with the Spark defaults because the selection evaluated
	// worse.
	FellBack bool `json:"fell_back,omitempty"`
	// SeededFrom is the retrieval provenance of a warm-started session: the
	// history neighbors, nearest first, whose observations its prior was
	// drawn from.
	SeededFrom []Neighbor `json:"seeded_from,omitempty"`
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID          string     `json:"id"`
	Spec        JobSpec    `json:"spec"`
	Fingerprint string     `json:"fingerprint"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Submitted   time.Time  `json:"submitted"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

type job struct {
	id    string
	spec  JobSpec
	fp    Fingerprint
	state State
	err   string
	// result is the session's outcome without BestParams and SparkConf, which
	// are functions of BestConfig and more than half of what a finished job
	// would hold on to for as long as the service runs; rendered puts them
	// back wherever a result leaves the service.
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelled atomic.Bool
	// done is closed by settleLocked, once, as the job turns terminal.
	done chan struct{}
	// resume is the checkpoint the job restarts from (nil for fresh jobs):
	// set at startup for jobs interrupted by a process death, and refreshed
	// between in-process retry attempts.
	resume *Checkpoint
	// attempts counts failed attempts already consumed (Config.JobRetries
	// bounds it).
	attempts int
	// timeline is the job's phase-span trace, set when the session starts.
	// *obs.Timeline is internally synchronized, so the trace endpoint can
	// snapshot it while the session is still appending spans.
	timeline *obs.Timeline
}

// Status returns a job's current snapshot.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.RLock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.RUnlock()
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	st := j.snapshotLocked()
	s.mu.RUnlock()
	st.Result = rendered(st.Result)
	return st, nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.RLock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshotLocked())
	}
	s.mu.RUnlock()
	for i := range out {
		out[i].Result = rendered(out[i].Result)
	}
	return out
}

// rendered returns a settled job's result as it leaves the service: a copy
// with the two renderings of BestConfig that settleLocked dropped (a result
// without a whole configuration has none). A result is never written after it
// settles, so no lock is needed.
func rendered(res *JobResult) *JobResult {
	if res == nil || len(res.BestConfig) != conf.NumParams {
		return res
	}
	full := *res
	full.BestParams = paramsToMap(res.BestConfig)
	full.SparkConf = sparkConfString(res.BestConfig)
	return &full
}

// snapshotLocked copies the job, its result as stored (callers render it once
// the mutex is released); the service mutex must be held (a read lock
// suffices — every job mutation happens under the write lock, so the read
// paths Status/Jobs/Stats snapshot concurrently without serializing behind
// each other or behind Submit).
func (j *job) snapshotLocked() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		Fingerprint: j.fp.Key(),
		State:       j.state,
		Error:       j.err,
		Submitted:   j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Result blocks until the job finishes and returns its result (an error for
// failed or cancelled jobs).
func (s *Service) Result(id string) (*JobResult, error) {
	s.mu.RLock()
	j, ok := s.jobs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	<-j.done
	s.mu.RLock()
	defer s.mu.RUnlock()
	if j.state == StateSucceeded {
		return rendered(j.result), nil
	}
	verdict := j.state.info().verdict
	if j.state == StateFailed {
		verdict += j.err
	}
	return nil, fmt.Errorf("service: job %s %s", id, verdict)
}

// Cancel requests cancellation: queued jobs are cancelled immediately and
// never start; running jobs stop cooperatively at the next evaluation
// boundary. Cancelling a finished job is a no-op.
//
// A queued job leaves its lane with its cancelled flag up in one critical
// section, has its checkpoint deleted outside the mutex, so a slow store
// holds up no reader, and settles in a second one; invariant 1 of the
// package doc keeps every other path off it in between.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: unknown job %q", id)
	}
	if was := j.cancelled.Swap(true); was || j.state != StateQueued {
		s.mu.Unlock()
		s.logf("[%s] cancellation requested", id)
		return nil
	}
	s.disp.remove(j)
	s.mu.Unlock()
	s.retire(j, StateCancelled)
	s.mu.Lock()
	s.settleLocked(j, StateCancelled, nil, nil)
	s.mu.Unlock()
	s.logf("[%s] cancelled while queued", id)
	return nil
}

// Stats is the service's job census, broken out by lifecycle state.
type Stats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Shed      int `json:"shed"`
	Suspended int `json:"suspended"`
}

// Finished is the number of jobs in any terminal state.
func (st Stats) Finished() int {
	n := 0
	for _, l := range lifecycle {
		if l.state.Terminal() {
			n += *l.count(&st)
		}
	}
	return n
}

// Stats reports the queue and pool occupancy and the terminal-state
// breakdown.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	for _, j := range s.jobs {
		*j.state.info().count(&st)++
	}
	return st
}

// Trace returns the job's phase-span timeline: one record per pipeline
// phase (sampling, QCSA, DAGP base selection, IICP, phase-2 search, GP
// hyperparameter resamples), with wall time, simulated cluster seconds and
// run counts. Open spans of a still-running job report Done=false with
// their wall time so far. Queued jobs have an empty trace.
func (s *Service) Trace(id string) ([]obs.SpanRecord, error) {
	s.mu.RLock()
	j, ok := s.jobs[id]
	tl := (*obs.Timeline)(nil)
	if ok {
		tl = j.timeline
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	if tl == nil {
		return []obs.SpanRecord{}, nil
	}
	return tl.Snapshot(), nil
}

// parked reports whether a session that ended with err was stopped by a
// graceful drain rather than by the user: the drain signal is up and no
// cancellation overrides it.
func (s *Service) parked(j *job, err error) bool {
	return errors.Is(err, core.ErrStopped) && s.draining.Load() && !j.cancelled.Load()
}

// requeueForRetry puts a failed job back on the queue when the retry budget
// allows, refreshed from its checkpoint so already-paid runs carry over.
// Returns false when the job must finish as failed (budget exhausted,
// cancellation requested, service closing, or queue full).
func (s *Service) requeueForRetry(j *job, cause error) bool {
	if s.cfg.JobRetries <= 0 || j.attempts >= s.cfg.JobRetries {
		return false
	}
	if cp, err := s.store.GetCheckpoint(j.id); err == nil && cp != nil {
		j.resume = cp
	}
	s.mu.Lock()
	// Cancel raises its flag under this mutex, so a job cancelled while it
	// ran never re-enters a lane (invariant 1). Retries re-enter the job's
	// own priority lane but never evict anyone: a flapping job must not
	// displace healthy queued work. A closing service has closed its
	// dispatcher under this mutex, which refuses.
	requeued := false
	if !j.cancelled.Load() {
		_, requeued = s.disp.enqueue(j, false)
	}
	if requeued {
		j.attempts++
		j.state = StateQueued
		// The retry's queue wait starts now, and it has not started running.
		j.submitted, j.started = time.Now(), time.Time{}
	}
	s.mu.Unlock()
	if requeued {
		s.logf("[%s] failed (%v); retry %d/%d queued", j.id, cause, j.attempts, s.cfg.JobRetries)
	}
	return requeued
}

// settleLocked moves a job into a terminal state, under the service mutex:
// the only writer of one and the only closer of done, run exactly once per
// job, after retire (invariant 2 of the package doc). The caller logs the job
// once the mutex is released.
func (s *Service) settleLocked(j *job, st State, res *JobResult, cause error) {
	j.state = st
	j.finished = time.Now()
	if res != nil {
		lean := *res
		lean.BestParams, lean.SparkConf = nil, ""
		j.result = &lean
	}
	switch {
	case cause != nil:
		j.err = cause.Error()
	case st == StateShed:
		j.err = "shed: displaced by interactive work under overload"
	case st == StateSuspended:
		j.err = "suspended: service drained; resume with Config.Resume"
	}
	ts := s.tenantLocked(j.spec.Tenant)
	ts.inFlight--
	if res != nil {
		// Cluster time is charged when it is known, not when the job is
		// admitted: the budget meters what the tenant actually consumed.
		ts.clusterSec += res.ClusterSec
	}
	if st == StateShed {
		s.metrics.admission("shed").Inc()
	}
	if !j.started.IsZero() {
		s.metrics.jobSeconds[st].Observe(j.finished.Sub(j.started).Seconds())
	}
	close(j.done)
}

// retire deletes the checkpoint of a job about to settle in st, unless a
// Config.Resume restart picks st up again (package doc). It runs before
// settleLocked, so a job that reads terminal has no checkpoint left.
func (s *Service) retire(j *job, st State) {
	if s.checkpointEvery <= 0 || st == StateSuspended || st == StateShed {
		return
	}
	if err := s.store.DeleteCheckpoint(j.id); err != nil {
		s.logf("[%s] checkpoint delete failed: %v", j.id, err)
	}
}

// finish retires and settles a job its worker owns, so no mutex covers retire.
func (s *Service) finish(j *job, st State, res *JobResult, err error, format string, args ...any) {
	s.retire(j, st)
	s.mu.Lock()
	s.settleLocked(j, st, res, err)
	s.mu.Unlock()
	s.logf(format, args...)
}
