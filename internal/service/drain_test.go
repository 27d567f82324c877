package service

import (
	"strings"
	"testing"
)

// Graceful drain conserves the backlog: Close checkpoints queued jobs
// instead of cancelling them, and a restart with Resume requeues every one
// under its original ID and runs it to completion. Nothing accepted is
// lost.
func TestDrainConservesQueuedJobs(t *testing.T) {
	store := NewMemStore()
	s1 := New(Config{Workers: 1, Store: store, CheckpointEvery: 1})
	s1.Hold() // park the workers so the whole backlog is queued at Close

	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := s1.Submit(quickSpec(100+float64(10*i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A job the user cancels while queued is out of its lane: the drain
	// neither suspends nor checkpoints it, and the restart does not see it.
	dropped, err := s1.Submit(quickSpec(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Cancel(dropped); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if st, _ := s1.Status(dropped); st.State != StateCancelled {
		t.Fatalf("cancelled job state after drain = %s, want %s", st.State, StateCancelled)
	}
	if cps, _ := store.ListCheckpoints(); len(cps) != len(ids) {
		t.Fatalf("checkpoints after drain = %v; want one per suspended job", cps)
	}

	for _, id := range ids {
		st, err := s1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateSuspended {
			t.Fatalf("job %s state after drain = %s, want %s", id, st.State, StateSuspended)
		}
		if _, err := s1.Result(id); err == nil || !strings.Contains(err.Error(), "suspended") {
			t.Fatalf("suspended job Result err = %v; want a suspension explanation", err)
		}
		if cp, _ := store.GetCheckpoint(id); cp == nil {
			t.Fatalf("job %s has no checkpoint to resume from", id)
		}
	}
	if stats := s1.Stats(); stats.Suspended != 3 {
		t.Fatalf("stats after drain = %+v; want 3 suspended", stats)
	}

	// "Restart": a new service over the same store resumes the backlog.
	s2 := New(Config{Workers: 2, Store: store, Resume: true, CheckpointEvery: 1})
	defer s2.Close()
	for _, id := range ids {
		res, err := s2.Result(id)
		if err != nil {
			t.Fatalf("resumed job %s failed: %v", id, err)
		}
		if res.TunedSec <= 0 {
			t.Fatalf("resumed job %s: degenerate result %+v", id, res)
		}
	}
	// Conservation: submitted == succeeded after restart, zero lost.
	if stats := s2.Stats(); stats.Succeeded != len(ids) || stats.Finished() != len(ids) {
		t.Fatalf("stats after resume = %+v; want exactly %d jobs, all succeeded", stats, len(ids))
	}
}

// A drain that catches a session mid-run suspends it at the next evaluation
// boundary with its checkpoint intact; the restarted service finishes the
// job without re-paying the runs the first process completed.
func TestDrainSuspendsRunningJob(t *testing.T) {
	store := NewMemStore()
	s1 := New(Config{Workers: 1, Store: store, CheckpointEvery: 1})

	// Paper-scale budgets: long enough that Close lands mid-session.
	spec := JobSpec{Cluster: "arm", Benchmark: "TPC-H", DataSizeGB: 100, Seed: 1}
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Close only once the session has paid for a run: a drain that lands
	// before the first one legitimately leaves an empty checkpoint.
	waitFor(t, "the session's first paid run", func() bool {
		cp, _ := store.GetCheckpoint(id)
		return cp != nil && len(cp.Entries) >= 1
	})
	s1.Close()

	st, err := s1.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSuspended {
		t.Fatalf("running job state after drain = %s, want %s", st.State, StateSuspended)
	}
	cp, _ := store.GetCheckpoint(id)
	if cp == nil || len(cp.Entries) == 0 {
		t.Fatal("drained session left no paid runs in its checkpoint")
	}

	s2 := New(Config{Workers: 1, Store: store, Resume: true, CheckpointEvery: 1})
	defer s2.Close()
	res, err := s2.Result(id)
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res.ResumedRuns == 0 {
		t.Fatal("resume re-paid every run; the drain checkpoint went unused")
	}
	if res.TunedSec <= 0 || res.TunedSec >= res.DefaultSec {
		t.Fatalf("resumed job: degenerate result %+v", res)
	}
}

// Without checkpoint support (CheckpointEvery < 0) a drain falls back to
// cancelling the backlog — the pre-drain behavior, still terminal for every
// job.
func TestDrainWithoutCheckpointingCancels(t *testing.T) {
	s := New(Config{Workers: 1, CheckpointEvery: -1})
	s.Hold()
	id, err := s.Submit(quickSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st, _ := s.Status(id); st.State != StateCancelled {
		t.Fatalf("job state after no-checkpoint drain = %s, want %s", st.State, StateCancelled)
	}
}
