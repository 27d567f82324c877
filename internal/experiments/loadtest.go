package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"locat/internal/core"
	"locat/internal/loadgen"
	"locat/internal/runner"
	"locat/internal/service"
	"locat/internal/workloads"
)

// LoadTest drives the service's overload machinery — priority shedding,
// per-tenant in-flight budgets, cluster-second degrades, zero-execution
// recommendation — with a deterministic mixed-tenant workload, and proves
// the admission outcome is a pure function of the workload: the same
// census of accepted / rejected / shed / degraded jobs per tenant and
// priority class, bit for bit, at worker pools of 1, 2 and 4.
//
// The scenario is 2x saturation by construction: 12 batch tuning jobs
// against a queue of 8, then 4 interactive jobs into the full queue, then
// 8 recommendations against a pre-seeded history. Submission happens in
// workload order with the worker pool held, so every admission decision
// resolves against the same queue state regardless of how many workers
// later drain it. Batch jobs carry a 1-cluster-second budget, which the
// core session can only notice after its first sampling batch — every
// surviving batch job therefore completes Degraded with its best observed
// configuration, deterministically.
//
// The driver fails if any interactive job is shed, if no batch job is shed
// or rejected (no overload — the harness lost its subject), if any
// recommendation misses the seeded neighborhood, or if the census differs
// across worker counts. The per-group counts are published as exact
// counters, which the benchmark baseline gate compares bit for bit.
func LoadTest(s *Session) ([]Table, error) {
	const clusterName, benchName = "arm", "TPC-H"
	app, err := workloads.ByName(benchName)
	if err != nil {
		return nil, err
	}

	// Seed a history neighborhood around the workload's sizes, persisted the
	// way the service persists finished sessions, so the recommend ops can be
	// answered from retrieval alone.
	var entries []service.Entry
	for i, gb := range []float64{100, 140} {
		r, err := s.runner(clusterName, fmt.Sprintf("loadtest/seed/%v", gb))
		if err != nil {
			return nil, err
		}
		rep, err := core.New(r, app, s.locatOptions()).Tune(gb)
		if err != nil {
			return nil, err
		}
		entries = append(entries, historyEntry(rep, clusterName, benchName, gb, i))
	}

	ops := loadtestOps(s.Seed)
	workerCounts := []int{1, 2, 4}
	reports := make([]*loadgen.Report, 0, len(workerCounts))
	for _, w := range workerCounts {
		rep, err := runLoadtest(s, entries, ops, w)
		if err != nil {
			return nil, fmt.Errorf("loadtest: workers=%d: %w", w, err)
		}
		reports = append(reports, rep)
	}

	base := reports[0]
	for i, rep := range reports[1:] {
		if !reflect.DeepEqual(base.Groups, rep.Groups) {
			return nil, fmt.Errorf("loadtest: census diverges between workers=%d and workers=%d:\n%v\nvs\n%v",
				workerCounts[0], workerCounts[i+1], censusString(base), censusString(rep))
		}
	}
	if err := checkCensus(base); err != nil {
		return nil, err
	}

	// The census rows are also exact counters: the baseline gate compares
	// these bit for bit, so any drift in admission, shedding or degrade
	// behavior fails the bench even when aggregate cluster seconds stay in
	// tolerance.
	t := Table{
		ID: "loadtest",
		Title: fmt.Sprintf("overload census of %d ops (census identical at workers %v)",
			len(ops), workerCounts),
		Cols: append([]Col{{Name: "group"}},
			cols("%.0f", append(censusCounters[:8:8], "cluster (s)")...)...),
	}
	groups := make([]string, 0, len(base.Groups))
	for g := range base.Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		row := censusRow(g, base.Groups[g])
		for i, name := range censusCounters {
			s.SetCounter(g+"/"+name, row[i+1].(float64))
		}
		t.Rows = append(t.Rows, row)
	}
	totals := base.Totals()
	t.Rows = append(t.Rows, censusRow("total", &totals))
	return []Table{t}, nil
}

// censusCounters names the counts of a census row, as counters and (but for
// cluster seconds) as column headers.
var censusCounters = []string{"submitted", "accepted", "rejected", "shed",
	"completed", "degraded", "hits", "runs", "cluster_sec"}

// censusRow is one census group's table row.
func censusRow(name string, c *loadgen.Counts) []any {
	return []any{name, float64(c.Submitted), float64(c.Accepted), float64(c.Rejected),
		float64(c.Shed), float64(c.Completed), float64(c.Degraded), float64(c.Hits),
		float64(c.Runs), c.ClusterSec}
}

// loadtestOps is the deterministic workload: batch wave, interactive wave,
// recommend wave, split between two tenants by the seeded mix.
func loadtestOps(seed int64) []loadgen.Op {
	ops := loadgen.Mix(loadgen.MixOptions{
		Seed:             seed,
		BatchTunes:       12,
		InteractiveTunes: 4,
		Recommends:       8,
		Tenants:          []string{"acme", "globex"},
		Template: service.JobSpec{
			Cluster:   "arm",
			Benchmark: "TPC-H",
			// Tuning jobs opt out of retrieval so each one's cost is a pure
			// function of its own spec, not of what earlier jobs deposited.
			ColdStart: true,
			// Always-quick budgets (independent of Session.Quick): the
			// harness measures admission, not tuning quality.
			NQCSA: 10, NIICP: 8, MaxIterations: 8,
		},
	})
	for i := range ops {
		switch {
		case ops[i].Kind == loadgen.KindRecommend:
			// Retrieval is the point of the recommend wave.
			ops[i].Spec.ColdStart = false
		case ops[i].Spec.Priority == service.PriorityBatch:
			// One cluster second: exhausted after the first sampling batch,
			// so every surviving batch job degrades deterministically to its
			// best observed configuration.
			ops[i].Spec.MaxClusterSec = 1
		}
	}
	return ops
}

// runLoadtest plays the workload against a fresh service with the given
// worker-pool size. Only the single-worker run is metered into the session
// tally: with one worker the execution order is serial and the float
// accumulation deterministic; wider pools interleave jobs and are checked
// for census equality only.
func runLoadtest(s *Session, entries []service.Entry, ops []loadgen.Op, workers int) (*loadgen.Report, error) {
	store := service.NewMemStore()
	for _, e := range entries {
		if err := store.Put(e); err != nil {
			return nil, err
		}
	}
	cfg := service.Config{
		Workers:  workers,
		QueueCap: 8,
		Store:    store,
		// Checkpointing off: the harness never kills this service, and the
		// run stays lean without mid-job snapshots.
		CheckpointEvery: -1,
		Tenants: map[string]service.TenantBudget{
			"acme":   {MaxInFlight: 6},
			"globex": {MaxInFlight: 6},
		},
	}
	if workers == 1 {
		cfg.Observers = []runner.RunObserver{&s.tally}
	}
	svc := service.New(cfg)
	defer svc.Close()
	svc.Hold()
	return loadgen.Run(svc, ops, loadgen.Config{
		Clients:          4,
		SequentialSubmit: true,
		AfterSubmit:      svc.Release,
	})
}

// checkCensus enforces the overload invariants on the (cross-worker
// identical) census.
func checkCensus(rep *loadgen.Report) error {
	totals := rep.Totals()
	if totals.Failed > 0 || totals.Suspended > 0 || totals.Cancelled > 0 {
		return fmt.Errorf("loadtest: unexpected terminal states (failed=%d suspended=%d cancelled=%d):\n%v",
			totals.Failed, totals.Suspended, totals.Cancelled, censusString(rep))
	}
	if totals.Rejected == 0 {
		return fmt.Errorf("loadtest: no rejections — the workload did not saturate admission:\n%v", censusString(rep))
	}
	if totals.Hits != 8 {
		return fmt.Errorf("loadtest: %d of 8 recommendations hit the seeded neighborhood:\n%v",
			totals.Hits, censusString(rep))
	}
	var batchShed, interShed, interAccepted, interCompleted, batchCompleted, batchDegraded int
	for g, c := range rep.Groups {
		if isPriority(g, service.PriorityInteractive) {
			interShed += c.Shed
			interAccepted += c.Accepted
			interCompleted += c.Completed
		}
		if isPriority(g, service.PriorityBatch) {
			batchShed += c.Shed
			batchCompleted += c.Completed
			batchDegraded += c.Degraded
		}
	}
	if interShed > 0 {
		return fmt.Errorf("loadtest: %d interactive jobs shed — priority inversion:\n%v", interShed, censusString(rep))
	}
	if batchShed == 0 {
		return fmt.Errorf("loadtest: no batch job was shed for the interactive wave:\n%v", censusString(rep))
	}
	// Accepted counts only the interactive tuning jobs (recommend ops never
	// enqueue); completed additionally counts the 8 answered recommendations.
	if interCompleted != interAccepted+8 {
		return fmt.Errorf("loadtest: interactive completed=%d, want accepted (%d) + 8 recommendations:\n%v",
			interCompleted, interAccepted, censusString(rep))
	}
	if batchDegraded != batchCompleted {
		return fmt.Errorf("loadtest: %d of %d completed batch jobs degraded (all should hit the 1 s budget):\n%v",
			batchDegraded, batchCompleted, censusString(rep))
	}
	return nil
}

// isPriority reports whether the census group name ("tenant/priority")
// belongs to the class.
func isPriority(group string, p service.Priority) bool {
	return strings.HasSuffix(group, "/"+string(p))
}

// censusString renders the per-group counts for error messages.
func censusString(rep *loadgen.Report) string {
	groups := make([]string, 0, len(rep.Groups))
	for g := range rep.Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	out := ""
	for _, g := range groups {
		out += fmt.Sprintf("  %s: %+v\n", g, *rep.Groups[g])
	}
	return out
}
