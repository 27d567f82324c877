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
	caps     Capabilities
}

func newFakeBackend(caps Capabilities) *fakeBackend {
	return &fakeBackend{space: sparksim.ARM().Space(), caps: caps}
}

func (f *fakeBackend) Capabilities() Capabilities { return f.caps }
func (f *fakeBackend) Space() *conf.Space         { return f.space }

func (f *fakeBackend) ReserveRuns(n int) uint64 {
	return f.runs.Add(uint64(n)) - uint64(n)
}

func (f *fakeBackend) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return f.RunAppAt(f.ReserveRuns(1), app, c, dataGB)
}

func (f *fakeBackend) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64) AppResult {
	cur := f.inFlight.Add(1)
	for {
		max := f.maxSeen.Load()
		if cur <= max || f.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	defer f.inFlight.Add(-1)
	sec := float64(idx+1)*1000 + c[0] + dataGB
	res := AppResult{Sec: sec, GCSec: sec * 0.1}
	for _, q := range app.Queries {
		res.Queries = append(res.Queries, QueryResult{Name: q.Name, Sec: sec / float64(len(app.Queries))})
	}
	return res
}

func (f *fakeBackend) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	return c[0] + dataGB
}

func batchApp() *Application {
	return &Application{Name: "batch-test", Queries: []Query{
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
// worker count — the runner-level mirror of sparksim's parallel contract.
func TestGenericPoolReproducesSerial(t *testing.T) {
	app := batchApp()
	mkSerial := func() []AppResult {
		f := newFakeBackend(Capabilities{Name: "fake"})
		cs := randomConfigs(f.space, 17, 3)
		var out []AppResult
		for i, c := range cs {
			out = append(out, f.RunApp(app, c, float64(100+i)))
		}
		return out
	}
	want := mkSerial()

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		f := newFakeBackend(Capabilities{Name: "fake"})
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

// Capability negotiation: a native-batch backend is called directly, not
// wrapped (its RunBatch sees the call), while a non-native backend is
// driven through RunAppAt.
type spyBatch struct {
	*fakeBackend
	batchCalls atomic.Int64
}

func (s *spyBatch) Capabilities() Capabilities {
	return Capabilities{Name: "spy", NativeBatch: true}
}

func (s *spyBatch) RunBatch(app *Application, cs []conf.Config, dataGB func(i int) float64, workers int, stop func() bool) ([]AppResult, int) {
	s.batchCalls.Add(1)
	return poolBatch(s.fakeBackend, app, cs, dataGB, 1, stop)
}

func TestRunBatchNegotiatesNativeBatch(t *testing.T) {
	app := batchApp()
	spy := &spyBatch{fakeBackend: newFakeBackend(Capabilities{})}
	cs := randomConfigs(spy.space, 5, 1)
	if _, done := RunBatch(spy, app, cs, func(int) float64 { return 100 }, 4, nil); done != len(cs) {
		t.Fatalf("done=%d", done)
	}
	if got := spy.batchCalls.Load(); got != 1 {
		t.Fatalf("native RunBatch called %d times, want 1", got)
	}

	// The same backend with NativeBatch masked must be pool-wrapped.
	f := newFakeBackend(Capabilities{Name: "fake"})
	if _, done := RunBatch(f, app, cs, func(int) float64 { return 100 }, 4, nil); done != len(cs) {
		t.Fatalf("done=%d", done)
	}
	if f.runs.Load() == 0 {
		t.Fatal("pool did not drive the backend")
	}
}

// The pool must clamp its concurrency to the backend's MaxParallel
// capability (a cluster submission-queue bound).
func TestPoolHonorsMaxParallel(t *testing.T) {
	f := newFakeBackend(Capabilities{Name: "fake", MaxParallel: 2})
	app := batchApp()
	cs := randomConfigs(f.space, 32, 9)
	if _, done := RunBatch(f, app, cs, func(int) float64 { return 100 }, 0, nil); done != len(cs) {
		t.Fatalf("done=%d", done)
	}
	if max := f.maxSeen.Load(); max > 2 {
		t.Fatalf("observed %d concurrent runs, capability allows 2", max)
	}
}

// Stop must cut the batch to a valid completed prefix, mirroring the
// simulator's native semantics.
func TestPoolStopPrefix(t *testing.T) {
	f := newFakeBackend(Capabilities{Name: "fake"})
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

// The Sim adapter must preserve the simulator's native batch behavior
// bit-for-bit: RunBatch through the adapter equals the simulator's own.
func TestSimAdapterDelegatesNativeBatch(t *testing.T) {
	cl := sparksim.ARM()
	app := batchApp()
	cs := randomConfigs(cl.Space(), 9, 11)
	gb := func(int) float64 { return 100 }

	direct, _ := sparksim.New(cl, 42).RunBatch(app, cs, gb, 3, nil)
	viaRunner, _ := RunBatch(NewSim(sparksim.New(cl, 42)), app, cs, gb, 3, nil)
	if !reflect.DeepEqual(direct, viaRunner) {
		t.Fatal("Sim adapter batch differs from the simulator's native batch")
	}
	if caps := CapsOf(NewSim(sparksim.New(cl, 1))); !caps.NativeBatch || caps.Name != "sparksim" {
		t.Fatalf("unexpected sim capabilities: %+v", caps)
	}
}

// CapsOf must derive NativeBatch for Reporter-less backends from the
// BatchRunner interface.
func TestCapsOfDefaults(t *testing.T) {
	if caps := CapsOf(sparksim.New(sparksim.ARM(), 1)); !caps.NativeBatch {
		t.Fatal("bare simulator should derive NativeBatch from its method set")
	}
	type plain struct{ Runner }
	if caps := CapsOf(plain{newFakeBackend(Capabilities{})}); caps.NativeBatch {
		t.Fatal("plain runner must not report NativeBatch")
	}
}

// The pool must be race-free with a shared backend (run under -race).
func TestPoolConcurrentBatchesRaceFree(t *testing.T) {
	f := newFakeBackend(Capabilities{Name: "fake"})
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
