package service

import (
	"locat/internal/obs"
	"locat/internal/runner"
)

// serviceMetrics holds the pre-resolved metric series the service charges:
// job-state gauges sampled from the live census at scrape time, queue-wait
// and per-state job-duration histograms, and the shared per-run metrics
// every observed session backend reports into.
type serviceMetrics struct {
	queueWait *obs.Histogram
	// jobSeconds holds one duration histogram per state a session can end in.
	jobSeconds map[State]*obs.Histogram
	runs       *runner.RunMetrics
	// Fault-tolerance series: per-run retries issued by the retry wrapper,
	// currently-open circuit breakers, jobs requeued from checkpoints on
	// startup, and checkpoint-write latency.
	retries         *obs.Counter
	breakerOpen     *obs.Gauge
	jobsResumed     *obs.Counter
	checkpointWrite *obs.Histogram
	// Recommendation-tier series: requests by outcome and the k-NN
	// retrieval latency. Every outcome is pre-registered so a scrape shows
	// zeroes, not absences.
	recommend map[string]*obs.Counter
	retrieval *obs.Histogram
	// Admission-control series: every submission decision by outcome
	// (accepted, or the refusal/eviction reason), pre-registered like the
	// recommendation outcomes.
	admissions map[string]*obs.Counter
}

// recommendOutcomes are the label values of locat_recommend_total.
var recommendOutcomes = []string{"hit", "refine", "fallback", "miss", "error"}

// admissionOutcomes are the label values of locat_admission_total: the
// terminal fate of every admission decision — accepted, refused (queue_full,
// rate_limited, max_in_flight, cluster_budget, closed) or a queued batch job
// evicted by interactive work (shed).
var admissionOutcomes = []string{
	"accepted", "queue_full", ReasonRateLimited, ReasonMaxInFlight,
	ReasonClusterBudget, "shed", "closed",
}

func newServiceMetrics(r *obs.Registry, s *Service) *serviceMetrics {
	jobSeconds := map[State]*obs.Histogram{}
	for _, l := range lifecycle {
		r.GaugeFunc("locat_jobs", "Jobs by lifecycle state.", func() float64 {
			census := s.Stats()
			return float64(*l.count(&census))
		}, "state", string(l.state))
		// A job is shed only while it waits: it has no session to time.
		if l.state.Terminal() && l.state != StateShed {
			jobSeconds[l.state] = r.Histogram("locat_job_seconds",
				"Wall-clock session duration of finished jobs.",
				obs.DurationBuckets, "state", string(l.state))
		}
	}
	recommend := make(map[string]*obs.Counter, len(recommendOutcomes))
	for _, oc := range recommendOutcomes {
		recommend[oc] = r.Counter("locat_recommend_total",
			"Zero-execution recommendation requests by outcome.", "outcome", oc)
	}
	admissions := make(map[string]*obs.Counter, len(admissionOutcomes))
	for _, oc := range admissionOutcomes {
		admissions[oc] = r.Counter("locat_admission_total",
			"Submission admission decisions by outcome.", "outcome", oc)
	}
	return &serviceMetrics{
		recommend:  recommend,
		admissions: admissions,
		retrieval: r.Histogram("locat_recommend_retrieval_seconds",
			"Wall-clock latency of k-NN retrieval behind /v1/recommend.",
			obs.DurationBuckets),
		queueWait: r.Histogram("locat_job_queue_wait_seconds",
			"Wall-clock time jobs spent queued before a worker picked them up.",
			obs.DurationBuckets),
		jobSeconds: jobSeconds,
		runs:       runner.NewRunMetrics(r),
		retries: r.Counter("locat_run_retries_total",
			"Execution attempts retried after a transient backend fault."),
		breakerOpen: r.Gauge("locat_breaker_open",
			"Circuit breakers currently open across running sessions."),
		jobsResumed: r.Counter("locat_jobs_resumed_total",
			"Interrupted jobs requeued from checkpoints at startup."),
		checkpointWrite: r.Histogram("locat_checkpoint_write_seconds",
			"Wall-clock latency of checkpoint persistence.",
			obs.DurationBuckets),
	}
}

// recommendOutcome returns the counter for a recommendation outcome.
func (m *serviceMetrics) recommendOutcome(oc string) *obs.Counter {
	if c, ok := m.recommend[oc]; ok {
		return c
	}
	return m.recommend["error"]
}

// admission returns the counter for an admission outcome.
func (m *serviceMetrics) admission(oc string) *obs.Counter {
	if c, ok := m.admissions[oc]; ok {
		return c
	}
	return m.admissions["closed"]
}
