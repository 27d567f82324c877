// Package loadgen is the deterministic load generator behind cmd/locat-load
// and the loadtest benchmark experiment: it drives a mixed-tenant workload
// of Submit/Status/Result/Recommend operations against a tuning service —
// in-process or over HTTP — and reports per-route latency quantiles plus
// per-tenant/priority outcome counts.
//
// Two layers keep determinism and realism separate. The workload (which
// operations, in which order, for which tenants) is a pure function of
// MixOptions — bit-identical for a given seed. The execution (how fast
// responses come back) is wall-clock and load-dependent; it feeds the
// latency quantiles, which the bench harness reports and never gates.
// With Config.SequentialSubmit, the admission decisions themselves (who is
// accepted, rejected, shed) also become a pure function of the workload
// order, which is what the benchmark gate pins.
package loadgen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"locat/internal/service"
	"locat/internal/stat"
)

// Kind is the operation type of one workload op.
type Kind string

// The operation kinds: a tuning-job submission (polled to completion) and a
// synchronous zero-execution recommendation.
const (
	KindTune      Kind = "tune"
	KindRecommend Kind = "recommend"
)

// Op is one client operation of the generated workload.
type Op struct {
	Kind Kind
	// Spec is the job spec of a tune op and the workload description of a
	// recommend op (the recommend request embeds it).
	Spec service.JobSpec
}

// Group renders the op's accounting bucket, "tenant/priority".
func (o Op) Group() string {
	return fmt.Sprintf("%s/%s", tenantLabel(o.Spec.Tenant), o.Spec.Priority)
}

func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// MixOptions parameterizes the deterministic workload mix.
type MixOptions struct {
	// Seed drives tenant and size assignment. Same seed, same workload.
	Seed int64
	// BatchTunes, InteractiveTunes and Recommends count the ops of each
	// class. The order is fixed — batch tunes, then interactive tunes, then
	// recommends — so saturation builds before the high-priority wave
	// arrives, which is the overload scenario the harness exists to probe.
	BatchTunes       int
	InteractiveTunes int
	Recommends       int
	// Tenants are assigned round-robin after a seeded shuffle of each
	// class's op list. Empty means the anonymous tenant.
	Tenants []string
	// DataSizesGB cycles through the ops' target sizes (default 100/120/140:
	// close enough to share fingerprint neighborhoods, distinct enough to
	// exercise retrieval).
	DataSizesGB []float64
	// Template seeds every op's spec: budgets (NQCSA/NIICP/MaxIterations),
	// backend, cold-start flag, MaxClusterSec. Per-op fields (Tenant,
	// Priority, DataSizeGB, Seed) are overwritten.
	Template service.JobSpec
}

// Mix expands the options into the deterministic op list.
func Mix(o MixOptions) []Op {
	if len(o.DataSizesGB) == 0 {
		o.DataSizesGB = []float64{100, 120, 140}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var ops []Op
	emit := func(n int, kind Kind, prio service.Priority) {
		for i := 0; i < n; i++ {
			spec := o.Template
			spec.Priority = prio
			spec.DataSizeGB = o.DataSizesGB[len(ops)%len(o.DataSizesGB)]
			spec.Seed = o.Seed + int64(len(ops)) + 1
			if len(o.Tenants) > 0 {
				spec.Tenant = o.Tenants[rng.Intn(len(o.Tenants))]
			}
			ops = append(ops, Op{Kind: kind, Spec: spec})
		}
	}
	emit(o.BatchTunes, KindTune, service.PriorityBatch)
	emit(o.InteractiveTunes, KindTune, service.PriorityInteractive)
	emit(o.Recommends, KindRecommend, service.PriorityInteractive)
	return ops
}

// Counts is the outcome census of one tenant/priority group. Submission
// order plus service configuration fully determine it under sequential
// submission, so the benchmark gate compares it bit for bit.
type Counts struct {
	// Submitted counts every op issued; Accepted the submissions the service
	// admitted; Rejected the admission refusals (queue full or over budget).
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	// Shed counts accepted batch jobs later displaced by interactive work.
	Shed int `json:"shed"`
	// Completed counts jobs that reached succeeded; Degraded the subset cut
	// short (deadline / cluster-second budget) that still returned a config.
	Completed int `json:"completed"`
	Degraded  int `json:"degraded"`
	// Suspended / Cancelled / Failed are the remaining terminal fates.
	Suspended int `json:"suspended,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	Failed    int `json:"failed,omitempty"`
	// Hits counts recommend ops answered from retrieval alone.
	Hits int `json:"hits,omitempty"`
	// Runs / ClusterSec aggregate the completed jobs' execution tallies in
	// op order (deterministic for a deterministic service).
	Runs       int64   `json:"runs"`
	ClusterSec float64 `json:"cluster_sec"`
}

// RouteStats are one route's wall-clock latency quantiles in seconds,
// computed exactly over every recorded sample (no sketching: a load test's
// sample counts are small enough to sort).
type RouteStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_sec"`
	P99   float64 `json:"p99_sec"`
	Max   float64 `json:"max_sec"`
}

// Report is the outcome of one load-generation run.
type Report struct {
	// Ops is the workload size; WallSec the run's total wall-clock time.
	Ops     int     `json:"ops"`
	WallSec float64 `json:"wall_sec"`
	// Routes holds per-route latency quantiles: submit, status, result,
	// recommend.
	Routes map[string]RouteStats `json:"routes"`
	// Groups holds the per-"tenant/priority" outcome census.
	Groups map[string]*Counts `json:"groups"`
}

// group returns (creating) the counts bucket of an op.
func (r *Report) group(o Op) *Counts {
	if r.Groups == nil {
		r.Groups = map[string]*Counts{}
	}
	g := o.Group()
	c, ok := r.Groups[g]
	if !ok {
		c = &Counts{}
		r.Groups[g] = c
	}
	return c
}

// quantiles computes quantiles over samples (seconds), interpolating
// linearly between order statistics, so that with few samples the p99 lies
// between the two largest.
func quantiles(samples []float64) RouteStats {
	st := RouteStats{Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	st.P50 = stat.Quantile(samples, 0.50)
	st.P99 = stat.Quantile(samples, 0.99)
	st.Max = slices.Max(samples)
	return st
}

// Totals sums every group's counts in sorted group order (so the float
// ClusterSec sum is as deterministic as the groups themselves).
func (r *Report) Totals() Counts {
	keys := make([]string, 0, len(r.Groups))
	for k := range r.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t Counts
	for _, k := range keys {
		c := r.Groups[k]
		t.Submitted += c.Submitted
		t.Accepted += c.Accepted
		t.Rejected += c.Rejected
		t.Shed += c.Shed
		t.Completed += c.Completed
		t.Degraded += c.Degraded
		t.Suspended += c.Suspended
		t.Cancelled += c.Cancelled
		t.Failed += c.Failed
		t.Hits += c.Hits
		t.Runs += c.Runs
		t.ClusterSec += c.ClusterSec
	}
	return t
}
