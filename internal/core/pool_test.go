package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"locat/internal/bo"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// tuneFresh runs the session Tune runs, on a workspace of its own that no
// other session has held or will hold.
func tuneFresh(tu *Tuner, targetGB float64) (*Report, error) {
	return tu.newSession(targetGB, new(bo.Workspace)).stages()
}

// singlePool makes the workspace pool hand back what was put last: one P, so
// Put and Get meet in one local pool, and no collection, which would clear
// it. Under -race sync.Pool still drops one Put in four at random.
func singlePool(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// poolSessions are the sessions the pool tests run, each on a tuner built
// afresh per run so the pooled and the fresh run see the same backend: a cold
// session, and a warm one whose prior rows make its reservation larger.
func poolSessions(t *testing.T) (cold, warm func() *Tuner) {
	t.Helper()
	app := workloads.TPCH()
	first, err := New(sparksim.New(sparksim.ARM(), 41), app, quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	prior := priorFromReport(first)
	cold = func() *Tuner { return New(sparksim.New(sparksim.ARM(), 42), app, quickOpts()) }
	warm = func() *Tuner {
		o := quickOpts()
		o.Prior = prior
		return New(sparksim.New(sparksim.ARM(), 43), app, o)
	}
	return cold, warm
}

// mustTune runs tune and fails the test on an error.
func mustTune(t *testing.T, tune func(*Tuner, float64) (*Report, error), tu *Tuner, targetGB float64) *Report {
	t.Helper()
	rep, err := tune(tu, targetGB)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPooledSessionMatchesFresh: sessions that take their workspace from the
// pool — a cold one, a warm one with more prior rows, then the cold one again
// in the warm one's storage — report exactly what each reports on a workspace
// of its own, and hand the workspace back reserved for exactly their phase 2.
// The first report must still equal its fresh twin after each later session
// ran in its storage (the last one, the same session, may write back what the
// first wrote): the twin's workspace is touched by no other session, so it is
// the first report's deep copy, and a report field that aliases the
// workspace fails here.
func TestPooledSessionMatchesFresh(t *testing.T) {
	singlePool(t)
	cold, warm := poolSessions(t)
	var first, firstFresh *Report
	for i, mk := range []func() *Tuner{cold, warm, cold} {
		pooled := mustTune(t, (*Tuner).Tune, mk(), 140)
		fresh := mustTune(t, tuneFresh, mk(), 140)
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("session %d: the pooled report differs from the fresh one", i)
		}
		want := mk().newSession(140, new(bo.Workspace)).ws.Reserve(0)
		ws := workspaces.Get().(*bo.Workspace)
		switch got := ws.Reserve(0); {
		case got == 0 && !raceEnabled:
			t.Fatalf("session %d: the pool did not keep the session's workspace", i)
		case got != 0 && got != want:
			t.Fatalf("session %d: returned its workspace reserved for %d rows, phase 2 trains on up to %d", i, got, want)
		}
		workspaces.Put(ws)
		if i == 0 {
			first, firstFresh = pooled, fresh
		} else if !reflect.DeepEqual(first, firstFresh) {
			t.Fatalf("the first report changed while session %d ran in its workspace", i)
		}
	}
}

// TestNestedSessionKeepsItsWorkspace: a session started from inside another
// one's Halt hook, between two of its runs, takes a workspace of its own, and
// both report what they report alone. A session that returns its workspace to
// the pool while it still works in it hands it to the nested one here, which
// rebuilds the outer session's rows under it.
func TestNestedSessionKeepsItsWorkspace(t *testing.T) {
	singlePool(t)
	cold, warm := poolSessions(t)
	var inner *Report
	outer, calls := cold(), 0
	outer.opts.Halt = func(float64) error {
		if calls++; calls == 20 {
			inner = mustTune(t, (*Tuner).Tune, warm(), 140)
		}
		return nil
	}
	pooled := mustTune(t, (*Tuner).Tune, outer, 140)
	if inner == nil {
		t.Fatal("the outer session ended before its hook started the nested one")
	}
	if fresh := mustTune(t, tuneFresh, cold(), 140); !reflect.DeepEqual(pooled, fresh) {
		t.Fatal("the outer session's report differs from the fresh one")
	}
	if fresh := mustTune(t, tuneFresh, warm(), 140); !reflect.DeepEqual(inner, fresh) {
		t.Fatal("the nested session's report differs from the fresh one")
	}
}

// TestConcurrentPooledSessions: two goroutines tune session after session on
// the shared pool at once; every report equals its fresh twin. Run under
// -race, which also catches two sessions working in one workspace.
func TestConcurrentPooledSessions(t *testing.T) {
	cold, warm := poolSessions(t)
	mks := []func() *Tuner{cold, warm}
	want := make([]*Report, len(mks))
	for i, mk := range mks {
		want[i] = mustTune(t, tuneFresh, mk(), 140)
	}
	got := make([][]*Report, len(mks))
	var wg sync.WaitGroup
	for i, mk := range mks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				rep, err := mk().Tune(140)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = append(got[i], rep)
			}
		}()
	}
	wg.Wait()
	for i, reps := range got {
		for j, rep := range reps {
			if !reflect.DeepEqual(rep, want[i]) {
				t.Errorf("goroutine %d, session %d: the pooled report differs from the fresh one", i, j)
			}
		}
	}
}

// TestSecondSessionAllocatesHalf pins what the pool saves: on one P, a cold
// session that finds the last one's workspace in the pool allocates at most
// half the bytes of the same session on a new workspace (it reads 0.14 of
// 0.46 MB at these options, the benchmark's cold_tune 0.37 of 1.13 MB).
func TestSecondSessionAllocatesHalf(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops one pooled workspace in four")
	}
	singlePool(t)
	runtime.GC() // two collections empty the pool: the first session starts on a new workspace
	runtime.GC()
	tune := func() uint64 {
		tu := New(sparksim.New(sparksim.ARM(), 42), workloads.TPCH(), quickOpts())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tu.Tune(140); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := tune(), tune()
	t.Logf("first session %d bytes, second %d", first, second)
	if 2*second > first {
		t.Fatalf("second session allocated %d bytes, the first %d: want at most half", second, first)
	}
}
