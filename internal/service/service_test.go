package service

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// quickSpec keeps a tuning session fast while exercising the full pipeline.
func quickSpec(gb float64, seed int64) JobSpec {
	return JobSpec{
		Cluster:       "arm",
		Benchmark:     "TPC-H",
		DataSizeGB:    gb,
		Seed:          seed,
		NQCSA:         10,
		NIICP:         8,
		MaxIterations: 8,
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(JobSpec{Cluster: "sparc"}); err == nil {
		t.Fatal("bad cluster accepted")
	}
	if _, err := s.Submit(JobSpec{Benchmark: "nope"}); err == nil {
		t.Fatal("bad benchmark accepted")
	}
	if _, err := s.Submit(JobSpec{DataSizeGB: -4}); err == nil {
		t.Fatal("negative size accepted")
	}
	// JSON carries no NaN or infinity, but the Go API does: a session at such
	// a size panicked in its base selection.
	for _, gb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Submit(quickSpec(gb, 1)); err == nil {
			t.Fatalf("size %v accepted", gb)
		}
		if _, err := s.Recommend(RecommendRequest{JobSpec: quickSpec(gb, 1)}); err == nil {
			t.Fatalf("size %v accepted for a recommendation", gb)
		}
	}
	if _, err := s.Status("job-999999"); err == nil {
		t.Fatal("unknown job status accepted")
	}
	if err := s.Cancel("job-999999"); err == nil {
		t.Fatal("unknown job cancel accepted")
	}
}

func TestConcurrentSubmitBoundedPool(t *testing.T) {
	const workers, jobs = 3, 8
	s := New(Config{Workers: workers})
	defer s.Close()

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		id, err := s.Submit(quickSpec(100+float64(i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Watch pool occupancy while the jobs drain.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	maxRunning := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := s.Stats(); st.Running > maxRunning {
				maxRunning = st.Running
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for _, id := range ids {
		res, err := s.Result(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if res.TunedSec <= 0 || res.OverheadSec <= 0 {
			t.Fatalf("job %s: degenerate result %+v", id, res)
		}
		if res.TunedSec >= res.DefaultSec {
			t.Fatalf("job %s: tuned %v not better than default %v", id, res.TunedSec, res.DefaultSec)
		}
	}
	close(stop)
	wg.Wait()

	if maxRunning > workers {
		t.Fatalf("observed %d concurrent sessions; pool bound is %d", maxRunning, workers)
	}
	st := s.Stats()
	if st.Queued != 0 || st.Running != 0 || st.Finished() != jobs {
		t.Fatalf("final stats %+v", st)
	}
}

func TestWarmStartFromHistoryStore(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// Cold session at 100 GB populates the history store.
	idA, err := s.Submit(quickSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := s.Result(idA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.WarmStarted {
		t.Fatal("first session cannot be warm")
	}
	if keys, _ := s.store.Keys(); len(keys) != 1 {
		t.Fatalf("history keys = %v, want one", keys)
	}

	// A neighboring size warm-starts from it...
	idB, err := s.Submit(quickSpec(140, 2))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := s.Result(idB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.WarmStarted || resB.PriorObsUsed == 0 {
		t.Fatalf("second session not warm-started: %+v", resB)
	}

	// ...and a cold control at the same size shows what that saved.
	cold := quickSpec(140, 2)
	cold.ColdStart = true
	idC, err := s.Submit(cold)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := s.Result(idC)
	if err != nil {
		t.Fatal(err)
	}
	if resC.WarmStarted {
		t.Fatal("ColdStart job consumed history")
	}
	if resB.OverheadSec >= resC.OverheadSec {
		t.Fatalf("warm overhead %.0f s not below cold overhead %.0f s",
			resB.OverheadSec, resC.OverheadSec)
	}
	if resB.FullRuns >= resC.FullRuns {
		t.Fatalf("warm session ran %d full apps, cold %d", resB.FullRuns, resC.FullRuns)
	}
	// The warm session must still deliver a real tuning result.
	if resB.TunedSec >= resB.DefaultSec {
		t.Fatalf("warm-tuned %v not better than default %v", resB.TunedSec, resB.DefaultSec)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// Occupy the single worker...
	idA, err := s.Submit(quickSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	// ...then cancel a job that is still queued behind it.
	idB, err := s.Submit(quickSpec(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(idB); err != nil {
		t.Fatal(err)
	}
	// A queued job is cancelled immediately — no waiting for a worker to
	// dequeue it.
	st, err := s.Status(idB)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state right after cancel = %s, want cancelled", st.State)
	}
	// It left the queue with that, and cancelling it again changes nothing.
	if err := s.Cancel(idB); err != nil {
		t.Fatal(err)
	}
	if stats := s.Stats(); stats.Queued+stats.Running != 1 || stats.Cancelled != 1 {
		t.Fatalf("stats after cancel = %+v; want the first job in flight, 1 cancelled", stats)
	}
	if _, err := s.Result(idB); err == nil {
		t.Fatal("cancelled job returned a result")
	}
	if _, err := s.Result(idA); err != nil {
		t.Fatalf("unrelated job affected: %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit(quickSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it starts, then cancel mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning || st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(id); err == nil {
		// The job may have finished before the cancellation landed — that
		// is legal; only a still-running job must end up cancelled.
		st, _ := s.Status(id)
		if st.State != StateSucceeded {
			t.Fatalf("non-terminal state %s after Result", st.State)
		}
		return
	}
	st, _ := s.Status(id)
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(quickSpec(100, 1)); err == nil {
		t.Fatal("submit after close accepted")
	}
}

func TestCloseCancelsBacklog(t *testing.T) {
	// Checkpointing disabled: with no checkpoint to park behind, Close falls
	// back to cancelling the backlog (the graceful-drain suspend path has its
	// own conservation test in drain_test.go).
	s := New(Config{Workers: 1, CheckpointEvery: -1})
	// One job occupies the worker; the rest sit in the queue when Close
	// lands and must come out cancelled, not executed.
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := s.Submit(quickSpec(100+float64(10*i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Close()
	var ran, cancelled int
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateSucceeded:
			ran++
		case StateCancelled:
			cancelled++
		default:
			t.Fatalf("job %s left in state %s after Close", id, st.State)
		}
	}
	if cancelled == 0 {
		t.Fatalf("no queued jobs cancelled by Close (ran=%d)", ran)
	}
}

func TestFileStoreBackedServiceWarmStartsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Store: fs})
	id, err := s1.Submit(quickSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Result(id); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// A brand-new service over the same directory — a restart — still
	// warm-starts.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: fs2})
	defer s2.Close()
	id2, err := s2.Submit(quickSpec(120, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted {
		t.Fatal("restarted service did not warm-start from persisted history")
	}
}

// TestConcurrentReadsUnderSubmit hammers the read-only paths (Status, Jobs,
// Stats) from many goroutines while jobs are being submitted and executed.
// Under -race this pins the RWMutex split: reads must be safe against the
// write paths, and read-path snapshots must never observe a job map entry
// without its submission fields. (Before the split every read serialized
// behind the single write mutex; now they only exclude writers.)
func TestConcurrentReadsUnderSubmit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	var ids []string
	var idMu sync.Mutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, js := range s.Jobs() {
					if js.ID == "" || js.Submitted.IsZero() {
						t.Errorf("snapshot missing submission fields: %+v", js)
						return
					}
				}
				s.Stats()
				idMu.Lock()
				snapshot := append([]string(nil), ids...)
				idMu.Unlock()
				for _, id := range snapshot {
					if _, err := s.Status(id); err != nil {
						t.Errorf("Status(%s): %v", id, err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		id, err := s.Submit(quickSpec(40+float64(i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		idMu.Lock()
		ids = append(ids, id)
		idMu.Unlock()
	}
	idMu.Lock()
	all := append([]string(nil), ids...)
	idMu.Unlock()
	for _, id := range all {
		if _, err := s.Result(id); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	st := s.Stats()
	if st.Queued != 0 || st.Running != 0 || st.Finished() != len(all) {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestTerminalJobsStayLean bounds what a finished job costs the service for
// the rest of its life: Service.jobs never forgets a job, so every byte a
// settled job holds is held until the process ends. Two hundred real sessions
// after a warm-up (which fills the store's per-key cap and the metric series)
// may grow the live heap by 3.5 KB each; with the tuned configuration kept
// three times over — vector, name→value map, spark-defaults text — they grew
// it by 7 KB.
func TestTerminalJobsStayLean(t *testing.T) {
	s := New(Config{Workers: 1, CheckpointEvery: -1})
	defer s.Close()
	run := func(n int) {
		for i := 0; i < n; i++ {
			id, err := s.Submit(JobSpec{Benchmark: "Scan", DataSizeGB: 8, NQCSA: 6, NIICP: 4, MaxIterations: 2, ColdStart: true, Seed: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Result(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	run(40)
	before := live()
	const jobs = 200
	run(jobs)
	perJob := (live() - before) / jobs
	t.Logf("a terminal job retains %d bytes", perJob)
	if perJob > 3500 {
		t.Fatalf("a terminal job retains %d bytes, want at most 3500", perJob)
	}
}
