package runner

import (
	"locat/internal/obs"
)

// RunMetrics is a RunObserver charging every execution to an obs.Registry:
// a run counter, a simulated-cluster-seconds counter, and wall/cluster
// duration histograms, all labeled by run kind ("app", "batch"; see
// KindBatch for where batch members count as "app"). The per-kind series are
// resolved once at construction, so the per-run path is a few atomic adds
// with zero allocations.
type RunMetrics struct {
	app, batch kindMetrics
}

type kindMetrics struct {
	runs       *obs.Counter
	clusterSec *obs.Counter
	wall       *obs.Histogram
	cluster    *obs.Histogram
}

func newKindMetrics(r *obs.Registry, kind string) kindMetrics {
	return kindMetrics{
		runs: r.Counter("locat_runs_total",
			"Executions performed against the execution backend.", "kind", kind),
		clusterSec: r.Counter("locat_run_cluster_seconds_total",
			"Simulated cluster seconds consumed by executions.", "kind", kind),
		wall: r.Histogram("locat_run_wall_seconds",
			"Host wall-clock seconds per execution (amortized for batch members).",
			obs.DurationBuckets, "kind", kind),
		cluster: r.Histogram("locat_run_cluster_seconds",
			"Simulated cluster seconds per execution.",
			obs.ClusterSecBuckets, "kind", kind),
	}
}

// NewRunMetrics registers (or resolves) the run metric families on r.
func NewRunMetrics(r *obs.Registry) *RunMetrics {
	return &RunMetrics{
		app:   newKindMetrics(r, KindApp),
		batch: newKindMetrics(r, KindBatch),
	}
}

// ObserveRun charges one execution.
func (m *RunMetrics) ObserveRun(kind string, wallSec, clusterSec float64) {
	km := &m.app
	if kind == KindBatch {
		km = &m.batch
	}
	km.runs.Inc()
	km.clusterSec.Add(clusterSec)
	km.wall.Observe(wallSec)
	km.cluster.Observe(clusterSec)
}

var _ RunObserver = (*RunMetrics)(nil)
