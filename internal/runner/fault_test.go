package runner

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/sparksim"
)

func noSleep(time.Duration) {}

func TestParseChaosSpec(t *testing.T) {
	o, err := ParseChaosSpec("drop=0.3,maxfail=2,delay=0.1,delayms=50,failafter=40,killafter=25,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := &ChaosOptions{
		DropRate: 0.3, MaxConsecutive: 2, DelayRate: 0.1, Delay: 50 * time.Millisecond,
		FailAfter: 40, KillAfter: 25, Seed: 7,
	}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("parsed %+v, want %+v", o, want)
	}
	if o, err := ParseChaosSpec(""); err != nil || o != nil {
		t.Fatalf("empty spec: got %+v, %v; want nil, nil", o, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-0.1", "maxfail=-1", "maxfail=x", "wat=1", "seed=abc", "delayms=-5"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// A retried chaotic session must reproduce the fault-free session
// bit-for-bit: MaxConsecutive bounds the failures of any run below the
// retry budget, so every drop heals and the same results come back in the
// same order.
func TestChaosWithRetryMatchesFaultFree(t *testing.T) {
	want, wantNoiseless := driveSession(t, newFakeBackend(0))

	var retries atomic.Int64
	chain := NewRetrying(
		NewChaos(newFakeBackend(0), ChaosOptions{DropRate: 0.5, MaxConsecutive: 2, Seed: 9}),
		RetryOptions{Sleep: noSleep, OnRetry: func() { retries.Add(1) }},
	)
	got, gotNoiseless := driveSession(t, chain)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaotic session diverged from fault-free results")
	}
	if !reflect.DeepEqual(gotNoiseless, wantNoiseless) {
		t.Fatalf("noiseless evaluations diverged: %v vs %v", gotNoiseless, wantNoiseless)
	}
	if retries.Load() == 0 {
		t.Fatal("no retries happened; drop rate 0.5 should have faulted something")
	}
	if err := BackendErr(chain); err != nil {
		t.Fatalf("healed session reports backend error: %v", err)
	}
}

// The same chaos seed must produce the same fault schedule on every run and
// worker count: the retry counts of repeated sessions are identical.
func TestChaosScheduleDeterministic(t *testing.T) {
	counts := make([]int64, 3)
	for i := range counts {
		var retries atomic.Int64
		chain := NewRetrying(
			NewChaos(newFakeBackend(0), ChaosOptions{DropRate: 0.4, Seed: 11}),
			RetryOptions{Sleep: noSleep, OnRetry: func() { retries.Add(1) }},
		)
		driveSession(t, chain)
		counts[i] = retries.Load()
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("retry counts differ across identical sessions: %v", counts)
	}
}

// Dropped attempts must not reach the inner backend: a replaying Cache below
// the chaos layer consumes one trace entry per served run, so a drop that
// touched it would desynchronize the replay.
func TestChaosDropNeverTouchesInner(t *testing.T) {
	var tally Tally
	inner := Observe(newFakeBackend(0), &tally)
	chaos := NewChaos(inner, ChaosOptions{DropRate: 1, MaxConsecutive: 1, Seed: 3})
	app := batchApp()
	c := inner.Space().Default()

	// First attempt of run 0 drops (rate 1) with the error Retrying
	// retries; no execution below.
	if res, err := chaos.tryRunAppAt(chaos.ReserveRuns(1), app, c, 100, nil); !errors.As(err, new(*errChaosDrop)) || res.Sec != 0 {
		t.Fatalf("want dropped first attempt, got %+v, %v", res, err)
	}
	if runs, _ := tally.Snapshot(); runs != 0 {
		t.Fatalf("drop executed %d inner runs; want 0", runs)
	}
	// Second attempt of the same index clears (maxfail 1) and executes.
	if _, err := chaos.tryRunAppAt(0, app, c, 100, nil); err != nil {
		t.Fatalf("second attempt should heal: %v", err)
	}
	if runs, _ := tally.Snapshot(); runs != 1 {
		t.Fatalf("healed attempt executed %d runs; want 1", runs)
	}
}

func TestChaosFailAfterIsSticky(t *testing.T) {
	fake := newFakeBackend(0)
	chaos := NewChaos(fake, ChaosOptions{FailAfter: 2, Seed: 1})
	app := batchApp()
	c := fake.Space().Default()
	for i := 0; i < 2; i++ {
		if res := chaos.RunApp(app, c, 100); res.Sec == 0 {
			t.Fatalf("run %d should succeed before FailAfter", i)
		}
	}
	if err := BackendErr(chaos); !errors.Is(err, ErrChaosFailed) {
		t.Fatalf("after FailAfter: err = %v, want ErrChaosFailed", err)
	}
	if res := chaos.RunApp(app, c, 100); res.Sec != 0 {
		t.Fatal("runs after the sticky failure must report zero results")
	}
	// Sticky failures are not drops: the retry policy gives up at once.
	var retries atomic.Int64
	NewRetrying(chaos, RetryOptions{Sleep: noSleep, OnRetry: func() { retries.Add(1) }}).RunApp(app, c, 100)
	if n := retries.Load(); n != 0 {
		t.Fatalf("sticky chaos failure retried %d times", n)
	}
}

// A chaos kill inside a parallel batch must surface as a panic on the
// calling goroutine (where session-level recovery lives), not crash the
// process from a pool worker.
func TestBatchPanicReachesCaller(t *testing.T) {
	fake := newFakeBackend(0)
	chaos := NewChaos(fake, ChaosOptions{KillAfter: 2, Seed: 1})
	cs := randomConfigs(fake.Space(), 8, 5)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("kill did not propagate out of RunBatch")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "chaos kill") {
			t.Fatalf("unexpected panic payload: %v", p)
		}
	}()
	RunBatch(chaos, batchApp(), cs, func(int) float64 { return 100 }, 4, nil)
}

// Backoff delays are a pure function of (seed, index, attempt): exponential
// from 100 ms with jitter in [0.5, 1) of the nominal delay, so the delay
// before attempt 1 lies in [50, 100) ms and before attempt 2 in [100, 200).
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	sleeps := func() []time.Duration {
		var got []time.Duration
		// Every run drops its first two attempts and executes on its third,
		// so a serial session sleeps exactly twice per run, in attempt order.
		chain := NewRetrying(
			NewChaos(newFakeBackend(0), ChaosOptions{DropRate: 1, MaxConsecutive: 2, Seed: 4}),
			RetryOptions{Seed: 8, Sleep: func(d time.Duration) { got = append(got, d) }},
		)
		app := batchApp()
		for _, c := range randomConfigs(chain.Space(), 20, 3) {
			if res := chain.RunApp(app, c, 100); res.Sec == 0 {
				t.Fatal("third attempt did not execute")
			}
		}
		return got
	}
	a, b := sleeps(), sleeps()
	if len(a) != 40 {
		t.Fatalf("recorded %d backoff sleeps, want 2 per run (40)", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("backoff schedule not deterministic:\n%v\n%v", a, b)
	}
	for i, d := range a {
		lo := 50 * time.Millisecond << (i % 2)
		if d < lo || d >= 2*lo {
			t.Fatalf("delay %d (attempt %d) = %v, outside [%v, %v)", i, i%2+1, d, lo, 2*lo)
		}
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	var tally Tally
	inner := Observe(newFakeBackend(0), &tally)
	var opened atomic.Int64
	chain := NewRetrying(
		// Every attempt drops and maxfail exceeds the retry budget, so every
		// run exhausts its attempts.
		NewChaos(inner, ChaosOptions{DropRate: 1, MaxConsecutive: 100, Seed: 2}),
		RetryOptions{Sleep: noSleep, OnBreakerOpen: func() { opened.Add(1) }},
	)
	app := batchApp()
	c := inner.Space().Default()
	for i := 0; i < 5; i++ {
		if err := BackendErr(chain); err != nil {
			t.Fatalf("breaker open after only %d failed runs: %v", i, err)
		}
		chain.RunApp(app, c, 100)
	}
	if err := BackendErr(chain); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("after 5 failed runs: err = %v, want ErrBreakerOpen", err)
	}
	if opened.Load() != 1 {
		t.Fatalf("OnBreakerOpen fired %d times, want 1", opened.Load())
	}
	// Open breaker short-circuits: no further inner attempts.
	before, _ := tally.Snapshot()
	chain.RunApp(app, c, 100)
	if after, _ := tally.Snapshot(); after != before {
		t.Fatal("breaker-open run still reached the backend")
	}
	if before != 0 {
		t.Fatalf("dropped attempts executed %d inner runs, want 0", before)
	}
}

// stickyFake is a Faulty backend for forwarding tests.
type stickyFake struct {
	*fakeBackend
	err error
}

func (s *stickyFake) Err() error { return s.err }

// BackendErr must see through the full production wrapper chain
// (Observed ∘ Retrying ∘ Chaos ∘ backend) from every layer it can
// originate at: the innermost backend, the chaos layer, and the breaker.
func TestBackendErrThroughWrapperChain(t *testing.T) {
	// Innermost sticky failure surfaces through all three wrappers.
	bottom := &stickyFake{fakeBackend: newFakeBackend(0)}
	var tally Tally
	chain := Observe(
		NewRetrying(NewChaos(bottom, ChaosOptions{Seed: 1}), RetryOptions{Sleep: noSleep}),
		&tally)
	if err := BackendErr(chain); err != nil {
		t.Fatalf("healthy chain reports %v", err)
	}
	bottom.err = errors.New("gateway dead")
	if err := BackendErr(chain); err == nil || err.Error() != "gateway dead" {
		t.Fatalf("innermost error not forwarded: %v", err)
	}
	// Cache, recording or not, forwards it as well: a wrapper that hid it
	// would report a dead backend as healthy.
	recSink, _ := memSink()
	for name, w := range map[string]Runner{"cache": NewCache(bottom, nil, nil), "recorder": NewRecorder(bottom, recSink, "s")} {
		if err := BackendErr(w); err == nil || err.Error() != "gateway dead" {
			t.Fatalf("%s: innermost error not forwarded: %v", name, err)
		}
	}

	// Chaos-layer sticky failure surfaces through Retrying and Observed.
	chaos := NewChaos(newFakeBackend(0), ChaosOptions{FailAfter: 1, Seed: 1})
	chain2 := Observe(NewRetrying(chaos, RetryOptions{Sleep: noSleep}), &tally)
	chain2.RunApp(batchApp(), chain2.Space().Default(), 100)
	if err := BackendErr(chain2); !errors.Is(err, ErrChaosFailed) {
		t.Fatalf("chaos failure not forwarded: %v", err)
	}

	// The chain also composes over a replay and keeps its results exact.
	cl := sparksim.ARM()
	sink, buf := memSink()
	rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s1")
	wantApps, wantNoiseless := driveSession(t, rec)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(cl.Space(), buf, "s1", ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := Observe(NewRetrying(NewChaos(rp, ChaosOptions{DropRate: 0.5, MaxConsecutive: 2, Seed: 13}),
		RetryOptions{Sleep: noSleep}), &tally)
	gotApps, gotNoiseless := driveSession(t, full)
	if !reflect.DeepEqual(gotApps, wantApps) || !reflect.DeepEqual(gotNoiseless, wantNoiseless) {
		t.Fatal("chaotic replay diverged from the recorded session")
	}
	if err := BackendErr(full); err != nil {
		t.Fatalf("healed replay chain reports %v", err)
	}
}

// The cache must serve checkpointed runs without re-executing them: a full
// re-drive of a fully-checkpointed session costs zero backend runs and
// returns identical results.
func TestCacheServesCheckpointedRuns(t *testing.T) {
	var entries []TraceEntry
	var mu sync.Mutex
	var payTally Tally
	paying := NewCache(Observe(newFakeBackend(0), &payTally), nil, func(e TraceEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	})
	wantApps, wantNoiseless := driveSession(t, paying)
	paidRuns, _ := payTally.Snapshot()
	if paidRuns == 0 || paying.ResumedRuns() != 0 {
		t.Fatalf("first drive: %d paid runs, %d resumed", paidRuns, paying.ResumedRuns())
	}

	var resumeTally Tally
	resumed := NewCache(Observe(newFakeBackend(0), &resumeTally), entries, nil)
	gotApps, gotNoiseless := driveSession(t, resumed)
	if !reflect.DeepEqual(gotApps, wantApps) || !reflect.DeepEqual(gotNoiseless, wantNoiseless) {
		t.Fatal("resumed session diverged from the original")
	}
	if runs, _ := resumeTally.Snapshot(); runs != 0 {
		t.Fatalf("resumed session re-executed %d runs; want 0", runs)
	}
	if resumed.ResumedRuns() != paidRuns {
		t.Fatalf("resumed %d runs, want %d", resumed.ResumedRuns(), paidRuns)
	}
}

// A partial checkpoint covers a prefix; the suffix executes fresh and is
// reported onward, so paid + fresh always equals the uninterrupted total.
func TestCachePartialCheckpointPaysOnlySuffix(t *testing.T) {
	var entries []TraceEntry
	var mu sync.Mutex
	var tally0 Tally
	first := NewCache(Observe(newFakeBackend(0), &tally0), nil, func(e TraceEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	})
	wantApps, _ := driveSession(t, first)
	total, _ := tally0.Snapshot()

	// Keep only the app runs at the first three indices — the "killed after
	// three runs" checkpoint.
	var prefix []TraceEntry
	for _, e := range entries {
		if e.Kind == TraceApp && e.Idx < 3 {
			prefix = append(prefix, e)
		}
	}
	if len(prefix) != 3 {
		t.Fatalf("prefix holds %d app entries, want 3", len(prefix))
	}

	var tally Tally
	resumed := NewCache(Observe(newFakeBackend(0), &tally), prefix, nil)
	gotApps, _ := driveSession(t, resumed)
	if !reflect.DeepEqual(gotApps, wantApps) {
		t.Fatal("partially resumed session diverged")
	}
	fresh, _ := tally.Snapshot()
	if resumed.ResumedRuns() != 3 {
		t.Fatalf("resumed %d runs, want 3", resumed.ResumedRuns())
	}
	if fresh+resumed.ResumedRuns() != total {
		t.Fatalf("fresh %d + resumed %d != total %d", fresh, resumed.ResumedRuns(), total)
	}
}

// Failed (zero-result) runs must not enter the checkpoint feed: resuming
// must never serve a failure as a paid result.
func TestCacheSkipsFailedRuns(t *testing.T) {
	var entries []TraceEntry
	var mu sync.Mutex
	// Every run fails (drop rate 1, no retry budget beyond the drops).
	dead := NewChaos(newFakeBackend(0), ChaosOptions{DropRate: 1, MaxConsecutive: 100, Seed: 6})
	cache := NewCache(dead, nil, func(e TraceEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	})
	if res := cache.RunApp(batchApp(), cache.Space().Default(), 100); res.Sec != 0 {
		t.Fatal("dropped run returned a result")
	}
	for _, e := range entries {
		if e.Kind != TraceNoiseless {
			t.Fatalf("failed run leaked into the checkpoint feed: %+v", e)
		}
	}
}
