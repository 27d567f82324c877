package main

import (
	"io"
	"reflect"
	"testing"

	"locat/internal/loadgen"
	"locat/internal/service"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := cliConfig{
		addr: "http://127.0.0.1:8080", clients: 8,
		batch: 12, interactive: 4, recommends: 8,
		tenants: []string{"acme", "globex"},
		seed:    1, benchmark: "TPC-H", quick: true,
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("defaults = %+v, want %+v", c, want)
	}
}

func TestParseFlagsTenantsAndBudgets(t *testing.T) {
	c, err := parseFlags([]string{
		"-tenants", " a , b ,", "-max-cluster-sec", "1", "-deadline-sec", "0.5",
		"-sequential", "-require-no-interactive-shed", "-quick=false",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.tenants, []string{"a", "b"}) {
		t.Fatalf("tenants = %v", c.tenants)
	}
	if c.maxClusterSec != 1 || c.deadlineSec != 0.5 || !c.sequential || !c.requireNoShed || c.quick {
		t.Fatalf("config = %+v", c)
	}
	// Empty tenant list means the anonymous tenant.
	c, err = parseFlags([]string{"-tenants", ""}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.tenants != nil {
		t.Fatalf("tenants = %v, want none", c.tenants)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-batch", "-1"},
		{"-batch", "0", "-interactive", "0", "-recommends", "0"},
		{"-max-cluster-sec", "-1"},
		{"-deadline-sec", "-1"},
		{"-no-such-flag"},
		{"stray-arg"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// Budgets bound only the batch wave: interactive jobs are the overload
// test's control group and must run unbudgeted.
func TestMixKeepsInteractiveUnbudgeted(t *testing.T) {
	c, err := parseFlags([]string{"-max-cluster-sec", "1", "-deadline-sec", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ops := mix(c)
	if len(ops) != c.batch+c.interactive+c.recommends {
		t.Fatalf("len = %d", len(ops))
	}
	for i, op := range ops {
		interactive := op.Spec.Priority == service.PriorityInteractive
		if interactive && (op.Spec.MaxClusterSec != 0 || op.Spec.DeadlineSec != 0) {
			t.Fatalf("op %d: interactive job carries budgets %+v", i, op.Spec)
		}
		if !interactive && (op.Spec.MaxClusterSec != 1 || op.Spec.DeadlineSec != 2) {
			t.Fatalf("op %d: batch job lost its budgets %+v", i, op.Spec)
		}
		if !op.Spec.ColdStart {
			t.Fatalf("op %d consults history; load-test runs must be cold", i)
		}
		if op.Spec.NQCSA != 10 || op.Spec.NIICP != 8 || op.Spec.MaxIterations != 8 {
			t.Fatalf("op %d: quick budgets not applied: %+v", i, op.Spec)
		}
	}
}

func TestInvertedPriority(t *testing.T) {
	rep := func(groups map[string]*loadgen.Counts) *loadgen.Report {
		return &loadgen.Report{Groups: groups}
	}
	if bad := invertedPriority(rep(map[string]*loadgen.Counts{
		"a/batch":       {Shed: 2, Rejected: 1},
		"a/interactive": {Completed: 3},
	})); bad != "" {
		t.Fatalf("batch-only pressure flagged: %s", bad)
	}
	if bad := invertedPriority(rep(map[string]*loadgen.Counts{
		"a/interactive": {Shed: 1},
	})); bad == "" {
		t.Fatal("shed interactive job not flagged")
	}
	// Interactive rejections are an inversion only when batch sailed through.
	if bad := invertedPriority(rep(map[string]*loadgen.Counts{
		"a/batch":       {Rejected: 1},
		"a/interactive": {Rejected: 1},
	})); bad != "" {
		t.Fatalf("shared back-pressure flagged: %s", bad)
	}
	if bad := invertedPriority(rep(map[string]*loadgen.Counts{
		"a/batch":       {Completed: 5},
		"a/interactive": {Rejected: 1},
	})); bad == "" {
		t.Fatal("interactive-only rejections not flagged")
	}
}
