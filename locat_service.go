package locat

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"

	"locat/internal/progress"
	"locat/internal/runner"
	"locat/internal/service"
)

// ServiceOptions configure a tuning Service.
type ServiceOptions struct {
	// Workers is the maximum number of tuning sessions running
	// concurrently (default 2). Further submissions queue.
	Workers int
	// HistoryDir, when non-empty, persists the tuning history to one JSON
	// file per workload fingerprint in that directory, so warm starts
	// survive restarts. Empty keeps the history in memory.
	HistoryDir string
	// QueueCap bounds the submission backlog (default 256).
	QueueCap int
	// Quiet suppresses the service's progress log on stderr.
	Quiet bool
	// Backend is the default execution backend of tuning sessions (an
	// internal/runner spec: "sim", "record=PATH", "replay=PATH", or
	// "sparkrest=URL"; empty selects the simulator). Individual jobs may
	// override it via Options.Backend.
	Backend string
	// Resume requeues jobs whose checkpoints survived a process death: on
	// startup every checkpoint in the store becomes a queued job under its
	// original ID, and the resumed session serves already-paid runs from
	// the checkpoint instead of re-executing them. Meaningful together with
	// HistoryDir (an in-memory store dies with the process).
	Resume bool
	// JobRetries bounds automatic in-process retries of failed jobs
	// (default 0). Retried jobs resume from their checkpoint, so each
	// attempt only pays for runs no earlier attempt completed.
	JobRetries int
	// Chaos, when non-empty, wraps every session backend in deterministic
	// fault injection plus the healing retry/breaker layer (same spec
	// syntax as Options.Chaos). Meant for resilience testing.
	Chaos string
	// RecommendK and RecommendMaxDistance bound the history retrieval behind
	// both a recommendation and a session's warm start: neighbors retrieved,
	// and the distance past which a history entry no longer counts as one.
	// RecommendConfidence is the confidence below which a recommendation
	// falls back to a real tuning job. Zero picks 5 / 0.75 / 0.5; NewService
	// rejects a negative K, a negative or non-finite distance and a
	// confidence outside [0, 1].
	RecommendK           int
	RecommendMaxDistance float64
	RecommendConfidence  float64
	// MaxHistoryKeys caps the history store's distinct workload fingerprints
	// (whole least-recently-written keys are evicted past the cap). Zero
	// picks 1024; negative is unbounded.
	MaxHistoryKeys int
	// Tenants maps tenant names to admission budgets; the "*" entry applies
	// to every unlisted tenant. Nil leaves all tenants unbudgeted.
	// Over-budget submissions fail immediately (429 + Retry-After over
	// HTTP) instead of queueing.
	Tenants map[string]TenantBudget
}

// TenantBudget bounds one tenant's admission; zero fields are unlimited.
// MaxInFlight caps queued-plus-running jobs, SubmitRate and SubmitBurst are a
// token bucket on submissions, and MaxClusterSec caps the cumulative
// simulated cluster seconds of the tenant's completed jobs.
type TenantBudget = service.TenantBudget

// JobState is a job's lifecycle position: "queued", "running", "succeeded",
// "failed", "cancelled", "shed" (a queued batch job displaced by
// interactive work under overload) or "suspended" (parked by a graceful
// drain; a restart with Resume requeues it under the same ID). Terminal
// reports whether the state is final.
type JobState = service.State

// JobStatus is a snapshot of a submitted job, as GET /v1/jobs/{id} serves it:
// Started and Finished are nil until reached, Result is set once it succeeded.
type JobStatus = service.JobStatus

// Service is a long-running tuning service: a bounded pool of concurrent
// sessions plus a history store of finished ones, keyed by workload
// fingerprint. Sessions for workloads similar to past ones are warm-started
// from the K nearest stored sessions (k-NN over workload feature vectors:
// K = RecommendK, 5 by default, within RecommendMaxDistance, 0.75 by default
// — the same cluster, benchmark and technique set up to about three
// power-of-two size buckets away), the same set Recommend blends: the
// datasize-aware GP is seeded with their observations and the nearest
// session's QCSA / IICP artifacts are reused, so the session
// skips most of the full-application sample collection — the dominant part
// of the paper's optimization time.
//
//	svc, _ := locat.NewService(locat.ServiceOptions{Workers: 4})
//	defer svc.Close()
//	id, _ := svc.Submit(locat.Options{Benchmark: "TPC-H", DataSizeGB: 100})
//	res, _ := svc.Result(id) // blocks; later similar jobs get cheaper
type Service struct {
	svc *service.Service
}

// NewService starts a tuning service.
func NewService(o ServiceOptions) (*Service, error) {
	if _, err := runner.ParseSpec(o.Backend); err != nil {
		return nil, err
	}
	chaos, err := runner.ParseChaosSpec(o.Chaos)
	if err != nil {
		return nil, err
	}
	// A NaN radius would drop the k-NN radius cut, and a confidence past 1
	// (or NaN) would turn every recommendation into a fallback tuning job.
	if d := o.RecommendMaxDistance; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return nil, fmt.Errorf("locat: RecommendMaxDistance %v is not a finite, non-negative distance", d)
	}
	if c := o.RecommendConfidence; !(c >= 0 && c <= 1) {
		return nil, fmt.Errorf("locat: RecommendConfidence %v is outside [0, 1]", c)
	}
	if o.RecommendK < 0 {
		return nil, fmt.Errorf("locat: RecommendK %d is negative", o.RecommendK)
	}
	cfg := service.Config{
		Workers:              o.Workers,
		QueueCap:             o.QueueCap,
		Backend:              o.Backend,
		Resume:               o.Resume,
		JobRetries:           o.JobRetries,
		Chaos:                chaos,
		RecommendK:           o.RecommendK,
		RecommendMaxDistance: o.RecommendMaxDistance,
		RecommendConfidence:  o.RecommendConfidence,
		MaxHistoryKeys:       o.MaxHistoryKeys,
		Tenants:              o.Tenants,
	}
	if o.HistoryDir != "" {
		fs, err := service.NewFileStore(o.HistoryDir)
		if err != nil {
			return nil, err
		}
		cfg.Store = fs
	}
	if !o.Quiet {
		cfg.Logf = progress.New(os.Stderr, "locat-serve:")
	}
	return &Service{svc: service.New(cfg)}, nil
}

// errSchedule rejects Options.Schedule at the service entry points.
var errSchedule = errors.New("locat: service jobs do not support Schedule; tune with a fixed target size (warm starts cover the size-change scenario)")

// specOf renames the public Options onto the session spec — every field the
// service and the session spine read. Schedule, Parallelism, Quiet and Chaos
// have no place in a spec; Tune hands them to the session itself.
func specOf(o Options) service.JobSpec {
	return service.JobSpec{
		Tenant:        o.Tenant,
		Priority:      service.Priority(o.Priority),
		DeadlineSec:   o.DeadlineSec,
		MaxClusterSec: o.MaxClusterSec,
		Cluster:       o.Cluster,
		Benchmark:     o.Benchmark,
		DataSizeGB:    o.DataSizeGB,
		Seed:          o.Seed,
		NQCSA:         o.NQCSA,
		NIICP:         o.NIICP,
		MaxIterations: o.MaxIterations,
		DisableQCSA:   o.DisableQCSA,
		DisableIICP:   o.DisableIICP,
		DisableDAGP:   o.DisableDAGP,
		ColdStart:     o.ColdStart,
		Backend:       o.Backend,
	}
}

// Submit enqueues a tuning job and returns its ID without blocking.
func (s *Service) Submit(o Options) (string, error) {
	if o.Schedule != nil {
		return "", errSchedule
	}
	return s.svc.Submit(specOf(o))
}

// Status returns the job's current snapshot.
func (s *Service) Status(id string) (JobStatus, error) { return s.svc.Status(id) }

// Result blocks until the job finishes and returns its tuning result; a
// failed or cancelled job returns an error.
func (s *Service) Result(id string) (*Result, error) {
	jr, err := s.svc.Result(id)
	if err != nil {
		return nil, err
	}
	st, err := s.svc.Status(id)
	if err != nil {
		return nil, err
	}
	res := resultOf(jr)
	if st.Started != nil && st.Finished != nil {
		res.Elapsed = st.Finished.Sub(*st.Started)
	}
	if spans, err := s.svc.Trace(id); err == nil {
		res.Phases = phasesOf(spans)
	}
	return res, nil
}

// Cancel requests cancellation: queued jobs never start and running jobs
// stop at the next evaluation boundary.
func (s *Service) Cancel(id string) error { return s.svc.Cancel(id) }

// Jobs returns snapshots of all jobs in submission order.
func (s *Service) Jobs() []JobStatus { return s.svc.Jobs() }

// HistoryEntry summarizes one stored session in the history store, as
// GET /v1/history serves it; Obs counts its stored tuning runs.
type HistoryEntry = service.HistorySummary

// History lists the history store's contents.
func (s *Service) History() ([]HistoryEntry, error) { return s.svc.History() }

// RecommendOptions tune one zero-execution recommendation.
type RecommendOptions struct {
	// K is the number of nearest history entries to retrieve (0: the
	// service default, normally 5).
	K int
	// MaxDistance is the feature-space radius past which a history entry no
	// longer counts as a neighbor (0: the service default, normally 0.75).
	MaxDistance float64
	// MinConfidence is the retrieval-evidence score below which the
	// recommendation is a miss (0: the service default, normally 0.5).
	MinConfidence float64
	// Refine, on a confident hit, additionally submits a background tuning
	// job (warm-started like any other); its ID is reported as RefineJobID.
	// Serve the blended config now, converge later.
	Refine bool
	// NoFallback suppresses the automatic tuning job on a low-confidence
	// miss.
	NoFallback bool
}

// RecommendedNeighbor is the provenance of one retrieved history entry.
type RecommendedNeighbor = service.Neighbor

// Recommendation is a zero-execution recommendation, as POST /v1/recommend
// serves it: a configuration blended from the nearest past tuning sessions,
// served without a single sample run.
type Recommendation = service.Recommendation

// Recommend serves a configuration for the workload immediately, with zero
// cluster executions: the k nearest past sessions are retrieved from the
// history store and their best configurations blended by similarity. A
// confident hit returns in microseconds; a low-confidence one submits a
// normal tuning job as the fallback (unless NoFallback is set).
func (s *Service) Recommend(o Options, ro RecommendOptions) (*Recommendation, error) {
	if o.Schedule != nil {
		return nil, errSchedule
	}
	rec, err := s.svc.Recommend(service.RecommendRequest{
		JobSpec: specOf(o),
		RecommendOptions: service.RecommendOptions{
			K:             ro.K,
			MaxDistance:   ro.MaxDistance,
			MinConfidence: ro.MinConfidence,
		},
		Refine:     ro.Refine,
		NoFallback: ro.NoFallback,
	})
	return rec, err
}

// RecommendFromHistory serves a zero-execution recommendation straight from
// a history directory, without starting a service: open the store, load (or
// build) its k-NN index, retrieve and blend. Fallback submission is not
// available on this path — a low-confidence result reports outcome "miss".
func RecommendFromHistory(dir string, o Options, ro RecommendOptions) (*Recommendation, error) {
	if o.Schedule != nil {
		return nil, errSchedule
	}
	fs, err := service.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	rec, err := service.NewRecommender(fs, nil).Recommend(specOf(o), service.RecommendOptions{
		K:             ro.K,
		MaxDistance:   ro.MaxDistance,
		MinConfidence: ro.MinConfidence,
	})
	return rec, err
}

// Handler returns the service's HTTP+JSON API (see cmd/locat-serve).
func (s *Service) Handler() http.Handler { return s.svc.Handler() }

// Ready reports whether the service accepts work: true once startup resume
// has requeued the interrupted backlog, false again the moment a drain
// begins. The HTTP handler serves it as /readyz.
func (s *Service) Ready() bool { return s.svc.Ready() }

// Close drains the service: submissions stop, queued and running jobs are
// checkpointed (not cancelled) when the store supports it, and a restart
// with Resume picks every suspended job back up under its original ID.
// Without checkpointing, queued jobs are cancelled and running sessions
// run to completion.
func (s *Service) Close() { s.svc.Close() }
