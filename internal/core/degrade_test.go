package core

import (
	"strings"
	"testing"
	"time"

	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// A backend that dies mid-session must not fail the session: the tuner
// stops between iterations, keeps everything it measured and recommends
// the best full-application configuration actually observed, flagged as
// degraded.
func TestBackendDeathMidSessionDegrades(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.TPCH()
	// Sticky failure after 8 executions: mid phase 1 (NQCSA is 12).
	chaos := runner.NewChaos(runner.NewSim(sparksim.New(cl, 1)), runner.ChaosOptions{FailAfter: 8, Seed: 1})
	rep, err := New(chaos, app, quickOpts()).Tune(100)
	if err != nil {
		t.Fatalf("mid-session backend death failed the session: %v", err)
	}
	if rep.Degraded == "" || !strings.Contains(rep.Degraded, "chaos") {
		t.Fatalf("Degraded = %q; want the backend failure cause", rep.Degraded)
	}
	if err := cl.Space().Validate(rep.Best); err != nil {
		t.Fatalf("degraded recommendation invalid: %v", err)
	}
	if rep.TunedSec <= 0 || rep.BaselineSec <= 0 {
		t.Fatalf("degraded report costs: tuned %v, baseline %v", rep.TunedSec, rep.BaselineSec)
	}
	// The guardrail holds even in degradation: never worse than the default.
	if rep.TunedSec > rep.BaselineSec {
		t.Fatalf("degraded recommendation (%v s) worse than default (%v s)", rep.TunedSec, rep.BaselineSec)
	}
	// Only paid runs are in the history; the sticky failure stopped the
	// session well short of the full budget.
	if rep.FullRuns == 0 || rep.FullRuns >= 12 {
		t.Fatalf("FullRuns = %d; want a partial phase-1 sample set", rep.FullRuns)
	}
}

// A backend dead from the very first run leaves nothing to recommend —
// that must stay an error, not a fabricated result.
func TestBackendDeadFromStartFails(t *testing.T) {
	cl := sparksim.ARM()
	chaos := runner.NewChaos(runner.NewSim(sparksim.New(cl, 1)), runner.ChaosOptions{FailAfter: 1, Seed: 1})
	// Consume the single allowed run so the session starts against a corpse.
	chaos.RunApp(&sparksim.Application{Name: "warmup", Queries: workloads.TPCH().Queries[:1]}, cl.Space().Default(), 100)
	if _, err := New(chaos, workloads.TPCH(), quickOpts()).Tune(100); err == nil {
		t.Fatal("session against a dead backend produced a report")
	}
}

// A tripped circuit breaker is a sticky backend failure like any other:
// the session degrades cleanly through the full production wrapper chain.
func TestBreakerTripDegrades(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.TPCH()
	// Every run fails all its attempts once 6 executions have happened
	// (failafter trips the chaos error, which is sticky, so the breaker's
	// consecutive-failure counter climbs immediately after).
	chain := runner.NewRetrying(
		runner.NewChaos(runner.NewSim(sparksim.New(cl, 3)), runner.ChaosOptions{FailAfter: 6, Seed: 2}),
		runner.RetryOptions{Sleep: func(d time.Duration) {}},
	)
	rep, err := New(chain, app, quickOpts()).Tune(100)
	if err != nil {
		t.Fatalf("breaker trip failed the session: %v", err)
	}
	if rep.Degraded == "" {
		t.Fatal("report not flagged degraded after backend death")
	}
	if rep.TunedSec > rep.BaselineSec {
		t.Fatalf("degraded recommendation (%v s) worse than default (%v s)", rep.TunedSec, rep.BaselineSec)
	}
}
