package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -fig ID must list the valid IDs and exit non-zero instead of
// running nothing.
func TestUnknownFigListsValidIDs(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "fig99"}, &out, &errb)
	if code == 0 {
		t.Fatal("unknown -fig exited 0")
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Fatalf("missing diagnostic: %q", msg)
	}
	for _, id := range []string{"fig11", "table3", "fig21"} {
		if !strings.Contains(msg, id) {
			t.Fatalf("valid ID %s not listed in: %q", id, msg)
		}
	}
}

// -list must print every registered experiment.
func TestListIDs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fig11") || !strings.Contains(out.String(), "table3") {
		t.Fatalf("IDs missing from -list output: %q", out.String())
	}
}

// No selection must print usage and exit 2.
func TestNoSelectionUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage message: %q", errb.String())
	}
}

// A bad -backend spec must fail with a diagnostic.
func TestBadBackendSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "fig8", "-backend", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (%s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown backend spec") {
		t.Fatalf("missing diagnostic: %q", errb.String())
	}
}

// runQuickFig runs one cheap experiment with -json and returns the report.
func runQuickFig(t *testing.T, dir, name, fig string) (report, string) {
	t.Helper()
	path := filepath.Join(dir, name)
	args := []string{"-fig", fig, "-quick", "-json", path}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep, path
}

// -json must emit per-experiment cluster seconds, runs and final cost,
// and the deterministic metrics must be stable across identical runs.
func TestJSONReportDeterministicMetrics(t *testing.T) {
	dir := t.TempDir()
	a, _ := runQuickFig(t, dir, "a.json", "fig8")
	b, _ := runQuickFig(t, dir, "b.json", "fig8")
	if len(a.Experiments) != 1 || a.Experiments[0].ID != "fig8" {
		t.Fatalf("bad report: %+v", a)
	}
	ea, eb := a.Experiments[0], b.Experiments[0]
	if ea.ClusterSec <= 0 || ea.Runs <= 0 {
		t.Fatalf("empty accounting: %+v", ea)
	}
	if ea.ClusterSec != eb.ClusterSec || ea.FinalCost != eb.FinalCost || ea.Runs != eb.Runs {
		t.Fatalf("deterministic metrics differ across identical runs: %+v vs %+v", ea, eb)
	}
}

// -json must carry fig11's claim as exact counters: each SOTA tuner's
// average reduction factor, and every tuner's summed run count beside it.
func TestJSONReportClaimCounters(t *testing.T) {
	rep, _ := runQuickFig(t, t.TempDir(), "fig11.json", "fig11")
	c := rep.Experiments[0].Counters
	for _, tn := range []string{"Tuneful", "DAC", "GBO-RL", "QTune"} {
		if v, ok := c["avg/"+tn]; !ok || v <= 1 {
			t.Fatalf("counter avg/%s = %v, %v; want a reduction factor above 1", tn, v, ok)
		}
	}
	for _, tn := range []string{"LOCAT", "Tuneful", "DAC", "GBO-RL", "QTune"} {
		if v := c["runs/"+tn]; v <= 0 || v != float64(int64(v)) {
			t.Fatalf("counter runs/%s = %v; want a positive run count", tn, v)
		}
	}
	if len(c) != 9 {
		t.Fatalf("fig11 publishes %d counters, want 9: %v", len(c), c)
	}
}

// The gate must pass against an identical baseline and fail (exit 3) when
// the baseline's deterministic metrics are tightened below the measured
// values.
func TestRegressionGate(t *testing.T) {
	dir := t.TempDir()
	rep, path := runQuickFig(t, dir, "base.json", "fig8")

	// Identical baseline: gate passes.
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "fig8", "-quick", "-baseline", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("gate failed against identical baseline: exit %d, %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no perf regressions") {
		t.Fatalf("no gate confirmation: %q", out.String())
	}

	// Shrink the baseline's cluster seconds by 2×: the measured run now
	// regresses past the 20% gate.
	tight := rep
	tight.Experiments = append([]experiment(nil), rep.Experiments...)
	tight.Experiments[0].ClusterSec /= 2
	tightPath := filepath.Join(dir, "tight.json")
	if err := writeReport(tightPath, &tight); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	code = run([]string{"-fig", "fig8", "-quick", "-baseline", tightPath}, &out, &errb)
	if code != 3 {
		t.Fatalf("gate exit %d, want 3 (%s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cluster_sec") {
		t.Fatalf("regression not named: %q", errb.String())
	}

	// Mismatched generation flags must be an error, not a silent pass.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fig", "fig8", "-baseline", path}, &out, &errb); code != 1 {
		t.Fatalf("flag-mismatch exit %d, want 1 (%s)", code, errb.String())
	}
}

// compareReports must flag baseline experiments missing from a full-suite
// run but ignore them for single-experiment runs.
func TestCompareMissingExperiments(t *testing.T) {
	dir := t.TempDir()
	base := report{Schema: 1, Seed: 1, Quick: true, Experiments: []experiment{
		{ID: "fig8", ClusterSec: 10, FinalCost: 5},
		{ID: "fig9", ClusterSec: 10, FinalCost: 5},
	}}
	path := filepath.Join(dir, "b.json")
	if err := writeReport(path, &base); err != nil {
		t.Fatal(err)
	}
	cur := report{Schema: 1, Seed: 1, Quick: true, Experiments: []experiment{
		{ID: "fig8", ClusterSec: 10, FinalCost: 5},
	}}
	regs, err := compareReports(path, &cur, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "fig9") {
		t.Fatalf("missing experiment not flagged: %v", regs)
	}
	regs, err = compareReports(path, &cur, 0.2, false)
	if err != nil || len(regs) != 0 {
		t.Fatalf("single-fig run flagged missing experiments: %v, %v", regs, err)
	}
}

// -cpuprofile / -memprofile must write non-empty pprof files covering the
// experiment runs, so perf PRs can attach before/after profiles.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "fig20", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path must fail up front, not after the runs.
	if code := run([]string{"-fig", "fig20", "-quick", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.out")}, &out, &errb); code != 2 {
		t.Fatalf("unwritable -cpuprofile exited %d, want 2", code)
	}
}
