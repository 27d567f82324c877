package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// errDeadline, budgetHalt and haltWhen stand in for the tuning service's
// limits, which it builds into one Halt hook per job: the same causes, worded
// the same.
var errDeadline = errors.New("core: deadline exceeded")

func budgetHalt(maxSec float64) func(float64) error {
	return func(spentSec float64) error {
		if spentSec >= maxSec {
			return fmt.Errorf("core: cluster-second budget exhausted (%.0f s of %.0f s)", spentSec, maxSec)
		}
		return nil
	}
}

// haltWhen answers cause whenever cond holds.
func haltWhen(cause error, cond func() bool) func(float64) error {
	return func(float64) error {
		if cond() {
			return cause
		}
		return nil
	}
}

// A cluster-second budget too small for the full session must degrade to
// the best observed configuration, not fail — and because overhead accrues
// only between evaluation batches on the session goroutine, the cutoff
// point is bit-for-bit reproducible at any worker count.
func TestClusterSecondBudgetDegradesDeterministically(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		opts := quickOpts()
		opts.Halt = budgetHalt(1) // exhausted right after the first sampling batch
		opts.Workers = workers
		rep, err := New(sparksim.New(sparksim.ARM(), 1), workloads.TPCH(), opts).Tune(100)
		if err != nil {
			t.Fatalf("budget exhaustion failed the session: %v", err)
		}
		return rep
	}
	a := run(1)
	if a.Degraded == "" || !strings.Contains(a.Degraded, "budget") {
		t.Fatalf("Degraded = %q; want the budget cause", a.Degraded)
	}
	if a.FullRuns == 0 {
		t.Fatal("no successful run before the cutoff; degrade had nothing to recommend")
	}
	if a.FullRuns >= quickOpts().NQCSA {
		t.Fatalf("FullRuns = %d; the 1 s budget should cut phase 1 short of %d", a.FullRuns, quickOpts().NQCSA)
	}
	if err := sparksim.ARM().Space().Validate(a.Best); err != nil {
		t.Fatalf("degraded recommendation invalid: %v", err)
	}
	if a.TunedSec > a.BaselineSec {
		t.Fatalf("degraded recommendation (%v s) worse than default (%v s)", a.TunedSec, a.BaselineSec)
	}
	for _, workers := range []int{2, 4} {
		b := run(workers)
		if math.Float64bits(a.OverheadSec) != math.Float64bits(b.OverheadSec) ||
			a.FullRuns != b.FullRuns || a.TunedSec != b.TunedSec {
			t.Fatalf("workers=%d diverged: overhead %v/%v runs %d/%d tuned %v/%v",
				workers, a.OverheadSec, b.OverheadSec, a.FullRuns, b.FullRuns, a.TunedSec, b.TunedSec)
		}
		for i := range a.Best {
			if a.Best[i] != b.Best[i] {
				t.Fatalf("workers=%d chose a different configuration", workers)
			}
		}
	}
}

// An expired deadline degrades mid-session: the report carries the cause
// and everything measured before the cutoff.
func TestDeadlineExpiryDegrades(t *testing.T) {
	var tally runner.Tally
	r := runner.Observe(sparksim.New(sparksim.ARM(), 1), &tally)
	opts := quickOpts()
	// Deterministic stand-in for a wall clock: "expired" once three runs
	// have been paid for.
	opts.Halt = haltWhen(errDeadline, func() bool { runs, _ := tally.Snapshot(); return runs >= 3 })
	rep, err := New(r, workloads.TPCH(), opts).Tune(100)
	if err != nil {
		t.Fatalf("deadline expiry failed the session: %v", err)
	}
	if !strings.Contains(rep.Degraded, "deadline") {
		t.Fatalf("Degraded = %q; want the deadline cause", rep.Degraded)
	}
	if rep.FullRuns == 0 || rep.FullRuns >= quickOpts().NQCSA {
		t.Fatalf("FullRuns = %d; want a partial phase-1 sample set", rep.FullRuns)
	}
	if rep.TunedSec > rep.BaselineSec {
		t.Fatalf("degraded recommendation (%v s) worse than default (%v s)", rep.TunedSec, rep.BaselineSec)
	}
}

// A deadline that expires before a single run completes leaves nothing to
// recommend: that stays an error.
func TestDeadlineBeforeFirstRunFails(t *testing.T) {
	opts := quickOpts()
	opts.Halt = haltWhen(errDeadline, func() bool { return true })
	if _, err := New(sparksim.New(sparksim.ARM(), 1), workloads.TPCH(), opts).Tune(100); err == nil {
		t.Fatal("session with an instantly expired deadline produced a report")
	}
}
