// Command locat-bench regenerates the paper's evaluation figures and tables
// on the configured execution backend (the simulated clusters by default).
//
// Usage:
//
//	locat-bench -fig fig11            # one experiment
//	locat-bench -all                  # every experiment (several minutes)
//	locat-bench -all -quick           # reduced budgets (seconds–minutes)
//	locat-bench -list                 # list experiment IDs
//
// Machine-readable perf reporting and the CI regression gate:
//
//	locat-bench -all -quick -json BENCH_PR.json
//	locat-bench -all -quick -json BENCH_PR.json -baseline BENCH_BASELINE.json
//
// -json writes per-experiment simulated cluster seconds, run count and
// final tuned cost, plus a per-phase breakdown ("phases") of the LOCAT
// pipeline: cluster seconds and run counts for sampling, QCSA, IICP, the
// subspace search and the GP hyperparameter resamples. Every value is
// deterministic for a seed; wall time, which depends on the machine, is
// only printed, on each experiment's "finished in" line.
// -baseline compares the report against a previous one
// and exits with status 3 when any deterministic metric regresses by more
// than -max-regress (default 20%).
//
// Execution backends (-backend) select what actually runs the samples:
// "sim" (default), "record=PATH" to capture a trace, "replay=PATH" to
// regenerate figures hermetically from a recorded trace, "sparkrest=URL"
// to drive a live gateway.
//
// Profiling (-cpuprofile / -memprofile) writes pprof output covering the
// experiment runs, so a perf change can ship with before/after profiles:
//
//	locat-bench -fig fig11 -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//
// Each experiment prints the same rows/series the corresponding paper
// figure reports; EXPERIMENTS.md documents the harness, the perf-report
// schema and the CI gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"locat/internal/experiments"
)

// report is the machine-readable outcome of a bench run (BENCH_PR.json).
type report struct {
	Schema      int          `json:"schema"`
	Seed        int64        `json:"seed"`
	Quick       bool         `json:"quick"`
	Backend     string       `json:"backend,omitempty"`
	Experiments []experiment `json:"experiments"`
}

// experiment is one figure/table's accounting.
type experiment struct {
	ID string `json:"id"`
	// ClusterSec is the simulated cluster time the experiment's tuning runs
	// consumed — deterministic for a given seed, so a >20% change is a real
	// behavioral regression, not noise.
	ClusterSec float64 `json:"cluster_sec"`
	// FinalCost is the sum of tuned final latencies the experiment
	// requested — deterministic; a rise means tuning quality regressed.
	FinalCost float64 `json:"final_cost"`
	// Runs is the number of executions performed.
	Runs int64 `json:"runs"`
	// Phases breaks the experiment's LOCAT tuning runs down by pipeline
	// phase (aggregated by name; empty for experiments that never enter the
	// LOCAT pipeline); cluster seconds and run counts are deterministic.
	Phases []phase `json:"phases,omitempty"`
	// Counters are exact deterministic outcomes the experiment published
	// (the loadtest experiment's per-tenant/priority admission census).
	// Unlike the tolerance-gated metrics above, the baseline gate compares
	// them bit for bit.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// phase is one pipeline phase's share of an experiment.
type phase struct {
	Name       string  `json:"name"`
	ClusterSec float64 `json:"cluster_sec"`
	Runs       int64   `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit, so CLI tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locat-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "", "experiment ID to run (fig2..fig21, table3)")
		all        = fs.Bool("all", false, "run every experiment")
		quick      = fs.Bool("quick", false, "reduced budgets for a fast pass")
		list       = fs.Bool("list", false, "list experiment IDs")
		seed       = fs.Int64("seed", 1, "random seed")
		backend    = fs.String("backend", "", "execution backend: sim (default), record=PATH, replay=PATH, sparkrest=URL")
		jsonOut    = fs.String("json", "", "write the machine-readable perf report to this file")
		baseline   = fs.String("baseline", "", "compare the report against this baseline file; exit 3 on regression")
		maxRegress = fs.Float64("max-regress", 0.20, "maximum allowed fractional regression vs the baseline")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after the runs) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Profiling brackets the experiment runs only — flag parsing and report
	// plumbing would just be noise in the profile.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "locat-bench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "locat-bench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "locat-bench:", err)
			return 2
		}
		defer func() {
			// Up-to-date allocation stats before the snapshot.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "locat-bench: writing heap profile:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *fig != "":
		ids = []string{*fig}
	default:
		fmt.Fprintln(stderr, "usage: locat-bench -fig <id> | -all [-quick] (use -list for IDs)")
		return 2
	}

	// Validate every requested ID up front: an unknown experiment must name
	// the valid ones and fail, not run an empty suite.
	for _, id := range ids {
		if _, ok := experiments.Registry[id]; !ok {
			fmt.Fprintf(stderr, "locat-bench: unknown experiment %q; valid IDs:\n  %s\n",
				id, strings.Join(experiments.IDs(), "\n  "))
			return 2
		}
	}

	s, err := experiments.NewSessionBackend(*seed, *quick, *backend)
	if err != nil {
		fmt.Fprintln(stderr, "locat-bench:", err)
		return 2
	}

	rep := report{Schema: 1, Seed: *seed, Quick: *quick, Backend: *backend}
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Registry[id](s)
		if err != nil {
			fmt.Fprintf(stderr, "locat-bench: %s: %v\n", id, err)
			return 1
		}
		for i := range tables {
			tables[i].Render(stdout)
		}
		wall := time.Since(start)
		runs, clusterSec, finalCost := s.TakeUsage()
		var phases []phase
		for _, sp := range s.TakePhases() {
			phases = append(phases, phase{
				Name:       sp.Name,
				ClusterSec: sp.ClusterSec,
				Runs:       sp.Runs,
			})
		}
		rep.Experiments = append(rep.Experiments, experiment{
			ID:         id,
			ClusterSec: clusterSec,
			FinalCost:  finalCost,
			Runs:       runs,
			Phases:     phases,
			Counters:   s.TakeCounters(),
		})
		fmt.Fprintf(stdout, "(%s finished in %s; %d runs, %.0f simulated cluster seconds)\n\n",
			id, wall.Round(time.Millisecond), runs, clusterSec)
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(stderr, "locat-bench: closing backend:", err)
		return 1
	}

	if *jsonOut != "" {
		if err := writeReport(*jsonOut, &rep); err != nil {
			fmt.Fprintln(stderr, "locat-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote perf report to %s\n", *jsonOut)
	}

	if *baseline != "" {
		regressions, err := compareReports(*baseline, &rep, *maxRegress, *all)
		if err != nil {
			fmt.Fprintln(stderr, "locat-bench:", err)
			return 1
		}
		if len(regressions) > 0 {
			fmt.Fprintf(stderr, "locat-bench: %d perf regression(s) vs %s (max allowed %.0f%%):\n",
				len(regressions), *baseline, *maxRegress*100)
			for _, r := range regressions {
				fmt.Fprintln(stderr, "  "+r)
			}
			return 3
		}
		fmt.Fprintf(stdout, "no perf regressions vs %s (gate: %.0f%%)\n", *baseline, *maxRegress*100)
	}
	return 0
}

// writeReport writes the JSON report with stable formatting.
func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareReports diffs the current report against a baseline file and
// returns one line per metric regressing by more than maxRegress.
// Cluster seconds and final cost are gated; counters must match exactly.
// When the current run covers the full suite (checkMissing),
// baseline experiments absent from it are reported too: a silently dropped
// experiment must not pass the gate.
func compareReports(baselinePath string, cur *report, maxRegress float64, checkMissing bool) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("bad baseline %s: %w", baselinePath, err)
	}
	if base.Seed != cur.Seed || base.Quick != cur.Quick {
		return nil, fmt.Errorf("baseline %s was generated with -seed %d -quick=%v; rerun with matching flags",
			baselinePath, base.Seed, base.Quick)
	}
	baseByID := map[string]experiment{}
	for _, e := range base.Experiments {
		baseByID[e.ID] = e
	}
	curIDs := map[string]bool{}
	var out []string
	exceeds := func(baseV, curV float64) bool {
		if baseV <= 0 {
			return curV > 1e-9 // a metric appearing from zero is suspicious
		}
		return curV > baseV*(1+maxRegress)+1e-9
	}
	for _, e := range cur.Experiments {
		curIDs[e.ID] = true
		b, ok := baseByID[e.ID]
		if !ok {
			continue // new experiment: no baseline yet, nothing to gate
		}
		if exceeds(b.ClusterSec, e.ClusterSec) {
			out = append(out, fmt.Sprintf("%s: cluster_sec %.1f → %.1f (+%.1f%%)",
				e.ID, b.ClusterSec, e.ClusterSec, pct(b.ClusterSec, e.ClusterSec)))
		}
		if exceeds(b.FinalCost, e.FinalCost) {
			out = append(out, fmt.Sprintf("%s: final_cost %.1f → %.1f (+%.1f%%)",
				e.ID, b.FinalCost, e.FinalCost, pct(b.FinalCost, e.FinalCost)))
		}
		// Counters are exact admission/outcome counts: any drift, in either
		// direction, is a behavioral change the baseline must acknowledge.
		names := make([]string, 0, len(b.Counters))
		for name := range b.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if cv, ok := e.Counters[name]; !ok {
				out = append(out, fmt.Sprintf("%s: counter %s missing (baseline %v)", e.ID, name, b.Counters[name]))
			} else if cv != b.Counters[name] {
				out = append(out, fmt.Sprintf("%s: counter %s %v → %v (exact gate)", e.ID, name, b.Counters[name], cv))
			}
		}
	}
	var missing []string
	if checkMissing {
		for _, e := range base.Experiments {
			if !curIDs[e.ID] {
				missing = append(missing, e.ID)
			}
		}
	}
	sort.Strings(missing)
	for _, id := range missing {
		out = append(out, fmt.Sprintf("%s: present in baseline but not in this run", id))
	}
	return out, nil
}

// pct renders the fractional increase as a percentage.
func pct(base, cur float64) float64 {
	if base <= 0 {
		return 100
	}
	return (cur/base - 1) * 100
}
