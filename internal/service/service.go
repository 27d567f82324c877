// Package service implements the LOCAT tuning service: a long-running
// session manager with a bounded worker pool, a history store of finished
// sessions keyed by workload fingerprint, and a warm-start path that seeds
// new sessions with observations retrieved from similar past workloads —
// the cross-session generalization of the paper's datasize-aware Gaussian
// process. The locat.Service facade and the locat-serve HTTP binary are
// thin wrappers around this package.
//
// # History retrieval
//
// There is one, Recommender.nearest: a k-NN scan of the feature-vector index
// for the K entries (Config.RecommendK, 5) within Config.RecommendMaxDistance
// (0.75: the same workload up to about three size buckets away; another
// benchmark, cluster or technique set is past it), resolved to store entries.
// POST /v1/recommend blends their best configurations (Recommender.Recommend);
// every job that is neither ColdStart nor DisableDAGP builds its warm-start
// prior from their observations (Recommender.Prior) and names them in
// JobResult.SeededFrom. runJob asks for the prior when the job starts to run,
// so it is a function of the spec and the store at that moment: none of it
// is carried on the job or in a checkpoint, and a warm start reads ≤ K shards.
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
// in a dispatcher lane iff its state is queued and it is not cancelled:
// eviction and Close's drain take it out of its lane in the critical section
// that settles it, Cancel in the one that raises the job's cancelled flag,
// and a failed attempt's retry enters one only in a critical section that
// finds the flag down, so the queue bound counts waiting jobs only. The one
// gap is a worker between dequeue and the mutex; its check of state and flag
// covers it. (2)
// settleLocked is the only writer of a terminal state and runs once per job:
// it owns the finish time, result, error text, the tenant's in-flight slot,
// a success's cluster seconds, the duration histogram, the shed counter and
// done. retire runs before it and owns the checkpoint (the worker's and
// Cancel's outside the mutex, Close's drain's inside it), so a state that
// reads terminal is final; only the log line comes after the unlock, and may
// trail done. The
// checkpoint is retired in every terminal state but two: suspended, which the
// next Config.Resume restart continues from, and shed, where a job that had
// one (resumed, or awaiting a retry) is deferred to that restart, not lost.
// So cancelling a queued job frees its queue slot, its tenant slot and its
// checkpoint at once.
//
// # What the history store costs
//
// A FileStore shard is one file per fingerprint key in JSON lines: each entry
// one json.Marshal line, oldest first, at most 32. The store keeps nothing of
// a shard in memory; every call decides from the file. A call reads the file
// into a buffer from a pool (shardBufs) and hands it back when it is done: no
// decoded entry aliases the buffer, since the decoder and encoding/json copy
// every string, so a read allocates what it decodes, not the file again.
//
//   - Get (every warm-start retrieval, GET /v1/history/{key}):
//     one read, then decodeShard line by line — no reflection, fingerprint
//     strings and query names interned per shard, maps and slices sized from
//     the line before. A line in any other layout (an escape, an unknown,
//     duplicate or differently-cased field, null, white space) goes to
//     encoding/json, which decides what it holds, so a hand-edited or hostile
//     line costs one slow decode and never another answer or another error.
//     FuzzShardDecode holds the decoder to that.
//   - Put reads and scans the shard, then appends e's line (below the cap,
//     lines in order, e not older than the newest); writes the lines the cap
//     keeps and e's through a temporary file (the same at the cap); or
//     decodes, sorts, caps and writes every line again (anything else,
//     including the indented array older stores wrote). An unreadable shard
//     fails the Put and stays as it was; FuzzShardPut holds Put to that.
//   - Crashes: an append is one write, so a crash leaves at most a torn last
//     line, which readers drop and the next Put rewrites away; every other
//     write is a temporary file and a rename. So reads take no lock.
//   - Heads (FileStore.heads): the same scan with sensitive, important and
//     observations validated but not built. A head is an entry's identity,
//     target size, tuned latency and best_params, beside its observation
//     count. Two readers want no more: start-up (NewRecommender), Sync, and
//     Add on a key at the cap reconcile the k-NN index from heads, and
//     Recommend blends its neighbors' best configurations from them. Prior,
//     which needs observations, reads whole entries through Get. A store
//     without heads (MemStore, a wrapper) is read through Get for both.
//     Start-up writes the index file, the next start-up's snapshot; every
//     later change stays in memory.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locat/internal/core"
	"locat/internal/obs"
	"locat/internal/progress"
	"locat/internal/runner"
)

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
	// checkpoint instead of re-executing them.
	Resume bool
	// JobRetries bounds the automatic in-process retries of failed jobs
	// (default 0: a failed job stays failed). Retried jobs requeue under the
	// same ID and resume from their checkpoint.
	JobRetries int
	// CheckpointEvery persists a job checkpoint after that many fresh
	// executions (default 8; negative disables checkpointing).
	CheckpointEvery int
	// Chaos, when non-nil, wraps every session backend in deterministic
	// fault injection plus the healing retry/breaker layer. Meant for
	// resilience testing; the public facade parses it from a
	// runner.ParseChaosSpec string such as "drop=0.3,seed=7".
	Chaos *runner.ChaosOptions
	// RecommendK and RecommendMaxDistance bound the history retrieval — how
	// many entries, how far away — behind both /v1/recommend and every warm
	// start; RecommendConfidence is the score below which a recommendation
	// is a miss (0 picks 5 / 0.75 / 0.5). A recommend request may override
	// them for its own answer.
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
// warm-start from its nearest entries (package doc, "History retrieval").
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
		cfg.Store.SetMaxKeys(cfg.MaxHistoryKeys)
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
	if s.checkpointEvery <= 0 {
		return
	}
	ids, err := s.store.ListCheckpoints()
	if err != nil {
		s.logf("resume: listing checkpoints failed: %v", err)
		return
	}
	for _, id := range ids {
		cp, err := s.store.GetCheckpoint(id)
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
			s.logf("[%s] shed: displaced by resumed %s", shed.id, j.id)
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
	if err := spec.normalize(); err != nil {
		return "", err
	}
	j := &job{
		spec:      spec,
		fp:        NewFingerprint(spec),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
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
		s.logf("[%s] shed: displaced by interactive %s under overload", shed.id, j.id)
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

// Close drains the service gracefully: intake stops (readiness flips
// first, so load balancers stop routing before submissions start failing),
// queued jobs are checkpointed as Suspended instead of cancelled, running
// sessions are asked to park at the next evaluation boundary with their
// checkpoints intact, and a restart with Config.Resume requeues all of
// them under their original IDs — an accepted job survives Close. Only
// when checkpointing is disabled (Config.CheckpointEvery < 0) does Close
// fall back to cancelling the backlog.
func (s *Service) Close() {
	s.ready.Store(false)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	canCkpt := s.checkpointEvery > 0
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
			if err := s.store.PutCheckpoint(*cp); err != nil {
				s.logf("[%s] drain checkpoint failed: %v; cancelling instead", j.id, err)
			} else {
				st = StateSuspended
			}
		}
		s.retire(j, st)
		s.settleLocked(j, st, nil, nil)
	}
	// Running sessions park at the next evaluation boundary and flush their
	// checkpoints; with checkpointing disabled they run to completion.
	s.draining.Store(canCkpt)
	s.disp.close()
	s.mu.Unlock()
	for _, j := range drained {
		s.logf("[%s] %s on drain", j.id, j.state)
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
		if j.state != StateQueued || j.cancelled.Load() {
			// Cancelled in the window between dequeue and this lock — the
			// one moment a queued job is in no lane. Cancel settles it.
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
			// A cancellation that lands after the last Halt poll loses the
			// race: the session completed, so its result stands.
			s.finish(j, StateSucceeded, res, nil, "[%s] succeeded: tuned %.0f s (default %.0f s), overhead %.0f s, warm=%v",
				j.id, res.TunedSec, res.DefaultSec, res.OverheadSec, res.WarmStarted)
		}
	}
}
