// Package service implements the LOCAT tuning service: a long-running
// session manager with a bounded worker pool, a history store of finished
// sessions keyed by workload fingerprint, and a warm-start path that seeds
// new sessions with observations retrieved from similar past workloads —
// the cross-session generalization of the paper's datasize-aware Gaussian
// process. The locat.Service facade and the locat-serve HTTP binary are
// thin wrappers around this package.
//
// # Job lifecycle
//
//	           ┌──────── retry (Config.JobRetries) ────────┐
//	           ▼                                           │
//	Submit ► queued ────── a worker ──────► running ───────┴► succeeded | failed
//	           ├─ Cancel ───────────► cancelled ◄─ Cancel ──┤  (at the next
//	           ├─ Close ────────────► suspended ◄─ Close ───┘  evaluation boundary)
//	           └─ interactive work into a full queue ► shed
//
// Two invariants, both held under the service mutex, carry it. (1) A job is
// in a dispatcher lane iff its state is queued: Cancel, eviction and Close's
// drain take it out of its lane in the critical section that settles it, so
// the queue bound counts waiting jobs only. The one gap is a worker between
// dequeue and the mutex; its state check covers it. (2) settleLocked is the
// only writer of a terminal state and runs once per job: it owns the finish
// time, result, error text, the tenant's in-flight slot and a success's
// cluster seconds. publish then, outside the mutex, owns the duration
// histogram, the shed counter, the checkpoint, the log line and done, in that
// order. The checkpoint is retired in every terminal state but two:
// suspended, which the next Config.Resume restart continues from, and shed,
// where a job that had one (resumed, or awaiting a retry) is deferred to
// that restart, not lost. So cancelling a queued job frees its queue slot,
// its tenant slot and its checkpoint at once.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/dagp"
	"locat/internal/obs"
	"locat/internal/progress"
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
// endpoint and the one spec RunSession turns into core.Options. The public
// locat.Options renames its fields (locat.specOf) and adds what only a direct
// Tune call takes.
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
	if _, err := workloads.ByName(s.Benchmark); err != nil {
		return err
	}
	if s.DataSizeGB == 0 {
		s.DataSizeGB = 100
	}
	if s.DataSizeGB < 0 {
		return errors.New("service: negative data size")
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
	// SeededFrom is the retrieval provenance of a refine or fallback job:
	// the history neighbors whose observations seeded this session.
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
	id        string
	spec      JobSpec
	fp        Fingerprint
	state     State
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelled atomic.Bool
	// done is closed by publish, once, after the job settled.
	done chan struct{}
	// resume is the checkpoint the job restarts from (nil for fresh jobs):
	// set at startup for jobs interrupted by a process death, and refreshed
	// between in-process retry attempts.
	resume *Checkpoint
	// seed, when non-nil, is the warm-start prior retrieved by the
	// recommendation engine (refine / fallback jobs); seededFrom is its
	// neighbor provenance, surfaced in the result.
	seed       *core.Prior
	seededFrom []Neighbor
	// attempts counts failed attempts already consumed (Config.JobRetries
	// bounds it).
	attempts int
	// timeline is the job's phase-span trace, set when the session starts.
	// *obs.Timeline is internally synchronized, so the trace endpoint can
	// snapshot it while the session is still appending spans.
	timeline *obs.Timeline
}

// Config configures a Service.
type Config struct {
	// Workers is the size of the session worker pool (default 2): the
	// maximum number of tuning sessions running concurrently. Further
	// submissions queue.
	Workers int
	// QueueCap bounds the backlog of queued jobs (default 256); Submit
	// fails once it is full.
	QueueCap int
	// Store is the history store (default: a fresh in-memory store).
	Store Store
	// Backend is the default execution backend of tuning sessions (an
	// internal/runner spec; empty selects the simulator). Jobs may override
	// it per submission. Record-mode backends share one trace sink across
	// all jobs, keyed by job ID, so a whole service run lands in one file;
	// replaying it requires re-submitting the same job sequence.
	Backend string
	// Logf, if non-nil, receives service and per-job progress lines.
	Logf progress.Logf
	// Metrics is the registry the service charges its telemetry to (job
	// state gauges, queue-wait and job-duration histograms, per-run
	// counters). Nil allocates a private registry; pass one to share it
	// with other instrumented components or expose it over HTTP.
	Metrics *obs.Registry
	// Resume requeues jobs whose checkpoints survived a process death: on
	// startup, every checkpoint in the store becomes a queued job under its
	// original ID, and its session serves already-paid runs from the
	// checkpoint instead of re-executing them. Requires a Store implementing
	// CheckpointStore (both built-ins do).
	Resume bool
	// JobRetries bounds the automatic in-process retries of failed jobs
	// (default 0: a failed job stays failed). Retried jobs requeue under the
	// same ID and resume from their checkpoint.
	JobRetries int
	// CheckpointEvery persists a job checkpoint after that many fresh
	// executions (default 8; negative disables checkpointing).
	CheckpointEvery int
	// Chaos, when non-empty, wraps every session backend in deterministic
	// fault injection plus the healing retry/breaker layer (a
	// runner.ParseChaosSpec string, e.g. "drop=0.3,seed=7"). Meant for
	// resilience testing; invalid specs disable chaos with a log line — use
	// the public facade for validated construction.
	Chaos string
	// RecommendK, RecommendMaxDistance and RecommendConfidence are the
	// defaults of the zero-execution recommendation tier (0 picks 5 / 0.75
	// / 0.5); individual requests may override them.
	RecommendK           int
	RecommendMaxDistance float64
	RecommendConfidence  float64
	// MaxHistoryKeys caps the distinct fingerprint keys the history store
	// retains (default 1024; negative: unbounded). Beyond the cap the least
	// recently written key is evicted wholesale, so the store and its k-NN
	// index stay bounded on a long-lived service.
	MaxHistoryKeys int
	// Tenants maps tenant names to budgets; the DefaultTenant ("*") entry
	// applies to every unlisted tenant. Nil or absent entries leave tenants
	// unbudgeted. Over-budget submissions are rejected with a *BudgetError
	// (429 + Retry-After over HTTP).
	Tenants map[string]TenantBudget
	// Observers are appended to the per-run observation chain of every
	// session backend (after the job tally and run metrics). Observational
	// only — they cannot alter results; the load-test experiment uses one
	// to charge service-executed runs to its benchmark session.
	Observers []runner.RunObserver
}

// ErrQueueFull rejects a submission against a full job queue — the
// admission-control signal the HTTP layer maps to 429.
var ErrQueueFull = errors.New("service: queue full")

// ErrClosed rejects a submission against a closed service (503 over HTTP).
var ErrClosed = errors.New("service: closed")

// Service is the concurrent tuning-session manager. Submit enqueues jobs
// and returns immediately; a fixed pool of workers drains the queue. Every
// successful session is persisted to the history store, and later sessions
// with a matching or neighboring workload fingerprint warm-start from it.
type Service struct {
	cfg   Config
	store Store

	mu        sync.RWMutex
	jobs      map[string]*job
	order     []string
	seq       int
	closed    bool
	factories map[string]*runner.Factory
	// tenants is the per-tenant budget accounting (lazily populated).
	tenants map[string]*tenantState

	disp *dispatcher
	wg   sync.WaitGroup

	// ready gates /readyz: false until startup resume has requeued the
	// backlog, false again the moment a drain begins.
	ready atomic.Bool
	// draining asks every session to park at its next evaluation boundary
	// with its checkpoint intact — the graceful-drain signal, as opposed to
	// a job's cancellation (which discards the job).
	draining atomic.Bool
	// now is the admission clock (swapped by rate-limit tests).
	now func() time.Time

	// rec is the zero-execution recommendation engine (k-NN retrieval over
	// the history store).
	rec *Recommender

	metrics *serviceMetrics
	// chaos is the parsed Config.Chaos fault schedule (nil: no injection).
	chaos *runner.ChaosOptions
	// checkpointEvery is the normalized Config.CheckpointEvery (0: disabled).
	checkpointEvery int
}

// New starts a Service with cfg's worker pool.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MaxHistoryKeys == 0 {
		cfg.MaxHistoryKeys = 1024
	}
	if cfg.MaxHistoryKeys > 0 {
		if capped, ok := cfg.Store.(interface{ SetMaxKeys(int) }); ok {
			capped.SetMaxKeys(cfg.MaxHistoryKeys)
		}
	}
	s := &Service{
		cfg:       cfg,
		store:     cfg.Store,
		jobs:      map[string]*job{},
		factories: map[string]*runner.Factory{},
		tenants:   map[string]*tenantState{},
		disp:      newDispatcher(cfg.QueueCap),
		now:       time.Now,
	}
	s.metrics = newServiceMetrics(cfg.Metrics, s)
	s.rec = NewRecommender(cfg.Store, cfg.Logf)
	s.rec.defaults = RecommendOptions{cfg.RecommendK, cfg.RecommendMaxDistance, cfg.RecommendConfidence}.or(s.rec.defaults)
	switch {
	case cfg.CheckpointEvery == 0:
		s.checkpointEvery = 8
	case cfg.CheckpointEvery > 0:
		s.checkpointEvery = cfg.CheckpointEvery
	}
	if cfg.Chaos != "" {
		chaos, err := runner.ParseChaosSpec(cfg.Chaos)
		if err != nil {
			s.logf("invalid chaos spec: %v; fault injection disabled", err)
		}
		s.chaos = chaos
	}
	if cfg.Resume {
		s.resumeCheckpointed()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// Ready reports whether the service accepts work: true once startup resume
// has requeued the interrupted backlog, false again the moment a drain
// begins. /readyz serves it as the readiness probe.
func (s *Service) Ready() bool { return s.ready.Load() }

// Hold parks the worker pool without refusing submissions: jobs accumulate
// in the dispatch queue until Release. With the pool held, admission and
// shedding are a pure function of the submission order — the worker count
// cannot influence which jobs are accepted, which is what makes the
// load-test experiment's per-tenant counters reproducible bit for bit.
func (s *Service) Hold() { s.disp.hold() }

// Release reopens dispatch after Hold.
func (s *Service) Release() { s.disp.release() }

// resumeCheckpointed requeues every checkpointed job left behind by a dead
// process, under its original ID and with the checkpoint attached, before
// any worker starts — interrupted work drains ahead of new submissions.
func (s *Service) resumeCheckpointed() {
	cs, ok := s.store.(CheckpointStore)
	if !ok || s.checkpointEvery <= 0 {
		return
	}
	ids, err := cs.ListCheckpoints()
	if err != nil {
		s.logf("resume: listing checkpoints failed: %v", err)
		return
	}
	for _, id := range ids {
		cp, err := cs.GetCheckpoint(id)
		if err != nil || cp == nil {
			s.logf("resume: checkpoint %s unreadable: %v", id, err)
			continue
		}
		j := &job{
			id:        cp.JobID,
			spec:      cp.Spec,
			fp:        NewFingerprint(cp.Spec),
			state:     StateQueued,
			submitted: time.Now(),
			done:      make(chan struct{}),
			resume:    cp,
		}
		// Specs checkpointed before priorities existed normalize to batch.
		if err := j.spec.normalize(); err != nil {
			s.logf("resume: checkpoint %s holds an invalid spec: %v", id, err)
			continue
		}
		// Resumed jobs re-enter admission accounting (they occupy queue and
		// tenant capacity) but pay no rate token — they were admitted once.
		shed, ok := s.disp.enqueue(j, true)
		if !ok {
			s.logf("resume: queue full; leaving checkpointed job %s for the next restart", id)
			continue
		}
		s.tenantLocked(j.spec.Tenant).inFlight++
		if shed != nil {
			// An interactive resume displaced an earlier-resumed batch job.
			// Its checkpoint stays behind, so the next restart retries it —
			// shed here means deferred, not lost.
			s.settleLocked(shed, StateShed, nil, nil)
			s.publish(shed, "[%s] shed: displaced by resumed %s", shed.id, j.id)
		}
		// Keep the ID sequence monotonic past every resumed job, so fresh
		// submissions never collide with resumed IDs.
		var n int
		if _, err := fmt.Sscanf(cp.JobID, "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.metrics.jobsResumed.Inc()
		s.logf("[%s] resumed from checkpoint: %d paid runs carried over", j.id, len(cp.Entries))
	}
}

// Metrics returns the registry the service reports into.
func (s *Service) Metrics() *obs.Registry { return s.cfg.Metrics }

// Store returns the service's history store.
func (s *Service) Store() Store { return s.store }

func (s *Service) logf(format string, args ...any) { progress.F(s.cfg.Logf, format, args...) }

// factory returns the (cached) backend factory for a spec, so record-mode
// backends share one trace sink across jobs.
func (s *Service) factory(spec string) (*runner.Factory, error) {
	if spec == "" {
		spec = s.cfg.Backend
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.factories[spec]; ok {
		return f, nil
	}
	f, err := runner.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s.factories[spec] = f
	return f, nil
}

// Submit validates and enqueues a job, returning its ID immediately.
func (s *Service) Submit(spec JobSpec) (string, error) {
	return s.submit(spec, nil, nil)
}

// submit is Submit plus the recommendation tier's seeding: refine and
// fallback jobs carry the retrieved prior and its provenance.
func (s *Service) submit(spec JobSpec, seed *core.Prior, from []Neighbor) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	j := &job{
		spec:       spec,
		fp:         NewFingerprint(spec),
		state:      StateQueued,
		submitted:  time.Now(),
		done:       make(chan struct{}),
		seed:       seed,
		seededFrom: from,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.admission("closed").Inc()
		return "", ErrClosed
	}
	// Per-tenant budgets first (nothing consumed on refusal), then the
	// shared queue bound. Only a fully admitted submission pays a rate
	// token and an in-flight slot.
	ts := s.tenantLocked(spec.Tenant)
	if err := ts.admitLocked(spec.Tenant, s.now()); err != nil {
		s.mu.Unlock()
		var be *BudgetError
		if errors.As(err, &be) {
			s.metrics.admission(be.Reason).Inc()
		}
		return "", err
	}
	s.seq++
	j.id = fmt.Sprintf("job-%06d", s.seq)
	shed, ok := s.disp.enqueue(j, true)
	if !ok {
		s.seq-- // admission refused; do not burn the ID
		s.mu.Unlock()
		s.metrics.admission("queue_full").Inc()
		return "", fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueCap)
	}
	ts.chargeLocked()
	if shed != nil {
		s.settleLocked(shed, StateShed, nil, nil)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.metrics.admission("accepted").Inc()
	if shed != nil {
		s.publish(shed, "[%s] shed: displaced by interactive %s under overload", shed.id, j.id)
	}
	s.logf("[%s] queued: %s %s %.0f GB %s/%s (fingerprint %s)",
		j.id, spec.Cluster, spec.Benchmark, spec.DataSizeGB,
		tenantName(spec.Tenant), spec.Priority, j.fp.Key())
	return j.id, nil
}

// tenantName renders the anonymous tenant readably in logs.
func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Status returns a job's current snapshot.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	return j.snapshotLocked(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshotLocked())
	}
	return out
}

// snapshotLocked renders the job; the service mutex must be held (a read
// lock suffices — every job mutation happens under the write lock, so the
// read paths Status/Jobs/Stats snapshot concurrently without serializing
// behind each other or behind Submit).
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
		return j.result, nil
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
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: unknown job %q", id)
	}
	j.cancelled.Store(true)
	if j.state != StateQueued {
		s.mu.Unlock()
		s.logf("[%s] cancellation requested", id)
		return nil
	}
	s.disp.remove(j)
	s.settleLocked(j, StateCancelled, nil, nil)
	s.mu.Unlock()
	s.publish(j, "[%s] cancelled while queued", id)
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

// Close drains the service gracefully: intake stops (readiness flips
// first, so load balancers stop routing before submissions start failing),
// queued jobs are checkpointed as Suspended instead of cancelled, running
// sessions are asked to park at the next evaluation boundary with their
// checkpoints intact, and a restart with Config.Resume requeues all of
// them under their original IDs — an accepted job survives Close. Only
// when the store cannot hold checkpoints (or checkpointing is disabled)
// does Close fall back to cancelling the backlog.
func (s *Service) Close() {
	s.ready.Store(false)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	cs, canCkpt := s.store.(CheckpointStore)
	canCkpt = canCkpt && s.checkpointEvery > 0
	// Pull the backlog out of the dispatcher atomically: workers never see
	// these jobs, so each is either suspended (checkpointed for the next
	// incarnation) or cancelled, but never half-run.
	drained := s.disp.drain()
	for _, j := range drained {
		st := StateCancelled
		if canCkpt {
			cp := j.resume
			if cp == nil {
				cp = &Checkpoint{JobID: j.id, Spec: j.spec, Fingerprint: j.fp.Key(),
					CreatedUnix: time.Now().Unix()}
			}
			if err := cs.PutCheckpoint(*cp); err != nil {
				s.logf("[%s] drain checkpoint failed: %v; cancelling instead", j.id, err)
			} else {
				st = StateSuspended
			}
		}
		s.settleLocked(j, st, nil, nil)
	}
	// Running sessions park at the next evaluation boundary and flush their
	// checkpoints; without a checkpoint store they simply run to completion
	// as before.
	s.draining.Store(canCkpt)
	s.disp.close()
	s.mu.Unlock()
	for _, j := range drained {
		s.publish(j, "[%s] %s on drain", j.id, j.state)
	}
	s.wg.Wait()
	// Flush backend factories (trace sinks of recording backends) once no
	// session can execute anymore.
	s.mu.Lock()
	factories := s.factories
	s.factories = map[string]*runner.Factory{}
	s.mu.Unlock()
	for spec, f := range factories {
		if err := f.Close(); err != nil {
			s.logf("backend %q close failed: %v", spec, err)
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.disp.dequeue()
		if !ok {
			return
		}
		s.mu.Lock()
		if j.state != StateQueued {
			// Cancelled in the window between dequeue and this lock — the
			// one moment a queued job is in no lane. Already settled.
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.timeline = obs.NewTimeline()
		s.mu.Unlock()
		s.metrics.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
		res, err := s.runJobSafe(j)
		switch {
		case s.parked(j, err):
			// The session flushed its checkpoint on the way out, so the next
			// incarnation resumes it.
			s.finish(j, StateSuspended, nil, nil, "[%s] suspended mid-session; checkpoint holds its progress", j.id)
		case errors.Is(err, core.ErrStopped):
			s.finish(j, StateCancelled, nil, nil, "[%s] cancelled", j.id)
		case err != nil:
			if !s.requeueForRetry(j, err) {
				s.finish(j, StateFailed, nil, err, "[%s] failed: %v", j.id, err)
			}
		default:
			// A cancellation that lands after the last Stop poll loses the
			// race: the session completed, so its result stands.
			s.finish(j, StateSucceeded, res, nil, "[%s] succeeded: tuned %.0f s (default %.0f s), overhead %.0f s, warm=%v",
				j.id, res.TunedSec, res.DefaultSec, res.OverheadSec, res.WarmStarted)
		}
	}
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
	if s.cfg.JobRetries <= 0 || j.attempts >= s.cfg.JobRetries || j.cancelled.Load() {
		return false
	}
	if cs, ok := s.store.(CheckpointStore); ok {
		if cp, err := cs.GetCheckpoint(j.id); err == nil && cp != nil {
			j.resume = cp
		}
	}
	s.mu.Lock()
	// Retries re-enter the job's own priority lane but never evict anyone:
	// a flapping job must not displace healthy queued work. A closing
	// service has closed its dispatcher under this mutex, which refuses.
	_, requeued := s.disp.enqueue(j, false)
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
// the only writer of one, run exactly once per job (invariant 2 of the
// package doc). The caller publishes the job once the mutex is released.
func (s *Service) settleLocked(j *job, st State, res *JobResult, cause error) {
	j.state = st
	j.finished = time.Now()
	j.result = res
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
}

// publish announces a settled job, outside the service mutex (it writes to
// the store and wakes Result callers). done comes last, so whoever waits on
// the job finds its metrics, checkpoint and log line in place.
func (s *Service) publish(j *job, format string, args ...any) {
	if !j.started.IsZero() {
		s.metrics.jobSeconds[j.state].Observe(j.finished.Sub(j.started).Seconds())
	}
	if j.state == StateShed {
		s.metrics.admission("shed").Inc()
	}
	// The two states a Config.Resume restart picks up again (package doc).
	keep := j.state == StateSuspended || j.state == StateShed
	if cs, ok := s.store.(CheckpointStore); ok && s.checkpointEvery > 0 && !keep {
		if err := cs.DeleteCheckpoint(j.id); err != nil {
			s.logf("[%s] checkpoint delete failed: %v", j.id, err)
		}
	}
	s.logf(format, args...)
	close(j.done)
}

// finish settles and publishes a job its worker is done with.
func (s *Service) finish(j *job, st State, res *JobResult, err error, format string, args ...any) {
	s.mu.Lock()
	s.settleLocked(j, st, res, err)
	s.mu.Unlock()
	s.publish(j, format, args...)
}

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
	if s.chaos != nil {
		inner = runner.NewRetrying(runner.NewChaos(inner, *s.chaos), runner.RetryOptions{
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
	// actually re-executed (the acceptance bar for resume is zero).
	var cache *runner.Cache
	var ckp *checkpointer
	if cs, ok := s.store.(CheckpointStore); ok && s.checkpointEvery > 0 {
		ckp = newCheckpointer(cs, j, s.checkpointEvery, s.metrics, s.cfg.Logf)
		var paid []runner.TraceEntry
		if j.resume != nil && runner.CapsOf(raw).Deterministic {
			// A deterministic backend re-drives the identical trajectory, so
			// checkpointed runs answer the session's re-requests verbatim.
			paid = j.resume.Entries
		}
		cache = runner.NewCache(run, paid, ckp.onRun)
		run = cache
	}
	space := run.Space()

	// The deadline clock starts before prior retrieval: reading history is
	// part of the session the caller is waiting on.
	var expired func() bool
	if spec.DeadlineSec > 0 {
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(spec.DeadlineSec*float64(time.Second)))
		defer cancel()
		expired = func() bool { return ctx.Err() != nil }
	}

	var prior *core.Prior
	if !spec.ColdStart && !spec.DisableDAGP {
		if j.seed != nil {
			// Refine/fallback jobs are seeded with the recommendation
			// engine's k-NN retrieval, which supersedes the fingerprint
			// lookup (its neighbor set is a superset of the bucket walk).
			prior = j.seed
			s.logf("[%s] seeded with %d neighbor observations from retrieval", j.id, len(j.seed.Obs))
		} else if p, n := s.retrievePrior(j, space); p != nil {
			s.logf("[%s] retrieved %d prior observations from history", j.id, n)
			prior = p
		}
	}
	if j.resume != nil && !runner.CapsOf(raw).Deterministic && !spec.DisableDAGP {
		// A non-deterministic backend (a live cluster) cannot replay its
		// trajectory, so the checkpoint's paid observations re-enter as a
		// warm-start prior instead of through the cache.
		if p := checkpointPrior(j.resume, space); p != nil {
			if prior == nil {
				prior = p
			} else {
				prior.Obs = append(prior.Obs, p.Obs...)
			}
			s.logf("[%s] warm-starting from %d checkpointed observations", j.id, len(p.Obs))
		}
	}

	res, rep, err := RunSession(run, spec, func(opts *core.Options) {
		// Stop covers both user cancellation and the graceful-drain signal —
		// the worker disambiguates on the way out.
		opts.Stop = func() bool { return j.cancelled.Load() || s.draining.Load() }
		opts.Expired = expired
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
	res.SeededFrom = j.seededFrom
	res.Runs, res.ClusterSec = tally.Snapshot()
	if cache != nil {
		res.ResumedRuns = cache.ResumedRuns()
	}
	if err := s.persist(j, rep, res); err != nil {
		// The tuning result is still valid; losing the history entry only
		// costs future warm starts.
		s.logf("[%s] history store write failed: %v", j.id, err)
	}
	return res, nil
}

// RunSession is the session spine, shared by the service's workers and the
// locat.Tune facade: the one place a JobSpec becomes core.Options, a backend
// that failed without degrading the session becomes an error, and a
// core.Report becomes a JobResult. adjust, when non-nil, runs after the spec
// has been applied and sets what only the caller knows — stop and deadline
// hooks, logger, tracer, warm-start prior, data schedule, worker count — so
// nothing here depends on who called. Runs, ClusterSec, ResumedRuns and
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
	opts.UseQCSA = !spec.DisableQCSA
	opts.UseIICP = !spec.DisableIICP
	opts.UseDAGP = !spec.DisableDAGP
	opts.MaxClusterSec = spec.MaxClusterSec
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
		DefaultSec:   run.NoiselessAppTime(app, run.Space().Default(), spec.DataSizeGB),
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

// checkpointPrior converts a checkpoint's successful full-application
// executions into a warm-start prior — the resume path for backends whose
// runs cannot be re-driven deterministically. Entries whose configuration is
// not of the space's dimension are skipped, the rule history observations
// follow: a checkpoint is read off disk, and a short vector would panic in
// the session's Encode on every resume. Returns nil when the checkpoint holds
// no usable observation.
func checkpointPrior(cp *Checkpoint, space *conf.Space) *core.Prior {
	p := &core.Prior{}
	for _, e := range cp.Entries {
		if e.Kind != runner.TraceApp || e.Result == nil || e.Result.Sec <= 0 || len(e.Conf) != space.Dim() {
			continue
		}
		var qs map[string]float64
		if len(e.Result.Queries) > 0 {
			qs = make(map[string]float64, len(e.Result.Queries))
			for _, qr := range e.Result.Queries {
				qs[qr.Name] += qr.Sec
			}
		}
		p.Obs = append(p.Obs, core.PriorObs{
			Conf:      conf.Config(append([]float64(nil), e.Conf...)),
			DataGB:    e.DataGB,
			Sec:       e.Result.Sec,
			QuerySecs: qs,
		})
	}
	if len(p.Obs) == 0 {
		return nil
	}
	return p
}

// retrievePrior assembles a core.Prior from history entries under the job's
// fingerprint and its neighboring size buckets: observations in the order the
// walk reads them, the QCSA / IICP artifacts from the newest same-bucket
// entry (falling back to neighbors).
func (s *Service) retrievePrior(j *job, space *conf.Space) (*core.Prior, int) {
	var entries []Entry
	for _, fp := range append([]Fingerprint{j.fp}, j.fp.Neighbors()...) {
		es, err := s.store.Get(fp.Key())
		if err != nil {
			s.logf("[%s] history read %s failed: %v", j.id, fp.Key(), err)
			continue
		}
		entries = append(entries, es...)
	}
	trusted := append([]Entry(nil), entries...)
	sort.SliceStable(trusted, func(a, b int) bool {
		sa, sb := trusted[a].Fingerprint.SizeBucket == j.fp.SizeBucket,
			trusted[b].Fingerprint.SizeBucket == j.fp.SizeBucket
		if sa != sb {
			return sa
		}
		return trusted[a].CreatedUnix > trusted[b].CreatedUnix
	})
	prior := buildPrior(entries, trusted, space, j.spec.DataSizeGB, s.rec.maxPriorObs)
	if prior == nil {
		return nil, 0
	}
	return prior, len(prior.Obs)
}

// buildPrior is the one rule that turns history entries into a warm-start
// prior. Every observation of the space's dimension, in the order entries
// gives them, is offered to dagp.SelectTransfer, which ranks them against the
// target size and keeps at most maxObs; the QCSA and IICP artifacts are each
// taken from the first entry of trusted that has one — the caller's order of
// preference (newest same-bucket entry for the fingerprint walk, nearest
// workload for k-NN retrieval). Nil when no entry holds a usable observation.
func buildPrior(entries, trusted []Entry, space *conf.Space, targetGB float64, maxObs int) *core.Prior {
	var obs []core.PriorObs
	var samples []dagp.Sample
	for _, e := range entries {
		for _, o := range e.Obs {
			if len(o.Params) != space.Dim() {
				continue // stored under a different parameter table
			}
			c := conf.Config(o.Params)
			obs = append(obs, core.PriorObs{Conf: c, DataGB: o.DataGB, Sec: o.Sec, QuerySecs: o.QuerySecs})
			samples = append(samples, dagp.Sample{X: space.Encode(c), DataGB: o.DataGB, Sec: o.Sec})
		}
	}
	if len(obs) == 0 {
		return nil
	}
	prior := &core.Prior{}
	for _, i := range dagp.SelectTransfer(samples, targetGB, maxObs) {
		prior.Obs = append(prior.Obs, obs[i])
	}
	for _, e := range trusted {
		if prior.Sensitive == nil && len(e.Sensitive) > 0 {
			prior.Sensitive = append([]string(nil), e.Sensitive...)
		}
		if prior.Important == nil && len(e.Important) > 0 {
			// Names this build's parameter table does not know are dropped; an
			// entry naming none it knows leaves the choice to the next.
			for _, name := range e.Important {
				if _, idx, ok := conf.ParamByName(name); ok {
					prior.Important = append(prior.Important, idx)
				}
			}
		}
	}
	return prior
}

// persist writes the finished session into the history store.
func (s *Service) persist(j *job, rep *core.Report, res *JobResult) error {
	e := Entry{
		Fingerprint: j.fp,
		JobID:       j.id,
		CreatedUnix: time.Now().Unix(),
		TargetGB:    j.spec.DataSizeGB,
		TunedSec:    res.TunedSec,
		OverheadSec: res.OverheadSec,
		BestParams:  res.BestParams,
		Sensitive:   res.SensitiveQueries,
		Important:   res.ImportantParams,
	}
	for _, ev := range rep.History {
		if !ev.FullApp {
			// RQA runs measure only the reduced application; persisting
			// them as full-app observations would corrupt future priors.
			continue
		}
		e.Obs = append(e.Obs, Observation{
			Params:    append([]float64(nil), ev.Conf...),
			DataGB:    ev.DataGB,
			Sec:       ev.Sec,
			QuerySecs: ev.QuerySecs,
		})
	}
	if err := s.store.Put(e); err != nil {
		return err
	}
	// Index the fresh entry (and drop whatever the per-key cap evicted) so
	// the recommendation tier sees it immediately.
	s.rec.Add(e)
	return nil
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
