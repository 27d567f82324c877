package runner

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"locat/internal/conf"
	"locat/internal/sparksim"
)

// fakeBackend is an index-deterministic Runner WITHOUT a native batch path:
// the result of run idx is a pure function of (idx, config, dataGB). It
// models a backend like a remote executor pool that only knows how to run
// one application at a time — exactly what the generic pool must wrap
// transparently.
type fakeBackend struct {
	space    *conf.Space
	runs     atomic.Uint64
	inFlight atomic.Int64
	maxSeen  atomic.Int64
	slots    int // concurrent runs it absorbs, 0 = unbounded
}

func newFakeBackend(slots int) *fakeBackend {
	return &fakeBackend{space: sparksim.ARM().Space(), slots: slots}
}

func (f *fakeBackend) maxParallel() int   { return f.slots }
func (f *fakeBackend) Space() *conf.Space { return f.space }

func (f *fakeBackend) ReserveRuns(n int) uint64 {
	return f.runs.Add(uint64(n)) - uint64(n)
}

func (f *fakeBackend) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return f.RunAppAt(f.ReserveRuns(1), app, c, dataGB, nil)
}

func (f *fakeBackend) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	cur := f.inFlight.Add(1)
	for {
		max := f.maxSeen.Load()
		if cur <= max || f.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	defer f.inFlight.Add(-1)
	sec := float64(idx+1)*1000 + c[0] + dataGB
	res := AppResult{Sec: sec, GCSec: sec * 0.1, Queries: into[:0]}
	for _, q := range app.Queries {
		res.Queries = append(res.Queries, QueryResult{Name: q.Name, Sec: sec / float64(len(app.Queries))})
	}
	return res
}

func (f *fakeBackend) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	return c[0] + dataGB
}

func batchApp() *Application {
	return &Application{Name: "batch-test", Queries: []sparksim.Query{
		{Name: "Q1", Class: sparksim.Selection, InputFrac: 0.2, Stages: 1, CPUWeight: 1},
		{Name: "Q2", Class: sparksim.Join, InputFrac: 0.5, ShuffleFrac: 0.4, Stages: 3, CPUWeight: 1.2},
	}}
}

func randomConfigs(space *conf.Space, n int, seed int64) []conf.Config {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]conf.Config, n)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	return cs
}

// A backend without native batch support must be transparently wrapped by
// the bounded worker pool and reproduce serial results bit-for-bit at any
// worker count.
func TestGenericPoolReproducesSerial(t *testing.T) {
	app := batchApp()
	mkSerial := func() []AppResult {
		f := newFakeBackend(0)
		cs := randomConfigs(f.space, 17, 3)
		var out []AppResult
		for i, c := range cs {
			out = append(out, f.RunApp(app, c, float64(100+i)))
		}
		return out
	}
	want := mkSerial()

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		f := newFakeBackend(0)
		cs := randomConfigs(f.space, 17, 3)
		got, done := RunBatch(f, app, cs, func(i int) float64 { return float64(100 + i) }, workers, nil)
		if done != len(cs) {
			t.Fatalf("workers=%d: done=%d, want %d", workers, done, len(cs))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: pooled batch differs from serial loop", workers)
		}
	}
}

// The pool must clamp its concurrency to the backend's cap (a cluster
// submission-queue bound).
func TestPoolHonorsMaxParallel(t *testing.T) {
	f := newFakeBackend(2)
	app := batchApp()
	cs := randomConfigs(f.space, 32, 9)
	if _, done := RunBatch(f, app, cs, func(int) float64 { return 100 }, 0, nil); done != len(cs) {
		t.Fatalf("done=%d", done)
	}
	if max := f.maxSeen.Load(); max > 2 {
		t.Fatalf("observed %d concurrent runs, the backend allows 2", max)
	}
}

// Stop must cut the batch to a valid completed prefix.
func TestPoolStopPrefix(t *testing.T) {
	f := newFakeBackend(0)
	app := batchApp()
	cs := randomConfigs(f.space, 24, 5)
	var polls atomic.Int64
	stop := func() bool { return polls.Add(1) > 6 }
	results, done := RunBatch(f, app, cs, func(int) float64 { return 100 }, 3, stop)
	if done >= len(cs) {
		t.Fatalf("stop did not cut the batch (done=%d)", done)
	}
	for i := 0; i < done; i++ {
		if results[i].Sec == 0 {
			t.Fatalf("result %d inside completed prefix is empty", i)
		}
	}
}

// A batch on the simulator must reproduce a serial RunApp loop bit-for-bit
// at any worker count, including the run-counter state it leaves behind.
func TestSimBatchMatchesSerial(t *testing.T) {
	cl := sparksim.ARM()
	app := batchApp()
	space := cl.Space()
	cs := randomConfigs(space, 12, 17)
	sizes := func(i int) float64 { return 100 + 50*float64(i%3) }

	serialSim := sparksim.New(cl, 99)
	serialSim.RunApp(app, space.Default(), 100) // offset the counter
	serial := make([]AppResult, len(cs))
	for i, c := range cs {
		serial[i] = serialSim.RunApp(app, c, sizes(i))
	}
	after := serialSim.RunApp(app, space.Default(), 100)

	for _, workers := range []int{1, 3, 8} {
		parSim := sparksim.New(cl, 99)
		parSim.RunApp(app, space.Default(), 100)
		got, done := RunBatch(NewSim(parSim), app, cs, sizes, workers, nil)
		if done != len(cs) {
			t.Fatalf("workers=%d: done=%d, want %d", workers, done, len(cs))
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: batch results diverge from serial loop", workers)
		}
		if next := parSim.RunApp(app, space.Default(), 100); !reflect.DeepEqual(next, after) {
			t.Fatalf("workers=%d: run counter diverged after batch", workers)
		}
	}
}

// Stop cuts a simulator batch short: a valid completed prefix is reported
// and no new items start after stop fires.
func TestSimBatchHonorsStop(t *testing.T) {
	cl := sparksim.ARM()
	app := batchApp()
	space := cl.Space()
	cs := make([]conf.Config, 16)
	for i := range cs {
		cs[i] = space.Default()
	}
	calls := 0
	stop := func() bool { calls++; return calls > 4 }
	got, done := RunBatch(NewSim(sparksim.New(cl, 5)), app, cs, func(int) float64 { return 100 }, 1, stop)
	if done >= len(cs) {
		t.Fatalf("stop did not cut the batch: done=%d", done)
	}
	ref := sparksim.New(cl, 5)
	for i := 0; i < done; i++ {
		want := ref.RunAppAt(uint64(i), app, cs[i], 100, nil)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("prefix item %d invalid after stop", i)
		}
	}
}

// The pool must be race-free with a shared backend (run under -race).
func TestPoolConcurrentBatchesRaceFree(t *testing.T) {
	f := newFakeBackend(0)
	app := batchApp()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cs := randomConfigs(f.space, 8, seed)
			if _, done := RunBatch(f, app, cs, func(int) float64 { return 100 }, 2, nil); done != len(cs) {
				t.Error("incomplete batch")
			}
		}(int64(w))
	}
	wg.Wait()
}
