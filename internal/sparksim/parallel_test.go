package sparksim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"locat/internal/conf"
	"locat/internal/stat"
)

func testApp() *Application {
	return &Application{Name: "mini", Queries: []Query{scanQuery(), joinQuery(), dimJoinQuery()}}
}

// Concurrent RunApp / RunQuery calls must be race-free (the shared counter is
// atomic and each run owns a private noise stream). Run under -race.
func TestConcurrentRunAppIsRaceFree(t *testing.T) {
	cl := ARM()
	s := New(cl, 7)
	app := testApp()
	c := cl.Space().Default()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r := s.RunApp(app, c, 100)
				if !(r.Sec > 0) {
					t.Error("non-positive app time")
					return
				}
				q := runOneQuery(s, joinQuery(), c, 100)
				if !(q.Sec > 0) {
					t.Error("non-positive query time")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A run's result depends only on its index, not on the order runs execute.
func TestRunAppAtIsOrderIndependent(t *testing.T) {
	cl := X86()
	app := testApp()
	c := cl.Space().Default()

	forward := New(cl, 3)
	backward := New(cl, 3)
	fw := make([]AppResult, 6)
	bw := make([]AppResult, 6)
	for i := 0; i < 6; i++ {
		fw[i] = forward.RunAppAt(uint64(i), app, c, 150, nil)
	}
	for i := 5; i >= 0; i-- {
		bw[i] = backward.RunAppAt(uint64(i), app, c, 150, nil)
	}
	if !reflect.DeepEqual(fw, bw) {
		t.Fatal("RunAppAt results depend on execution order")
	}
}

// Two simulators with the same seed must still agree when one is driven by
// batches and the other serially — the documented equivalence contract.
func TestSeedEquivalenceAcrossDrivers(t *testing.T) {
	cl := ARM()
	s1 := New(cl, 42)
	s2 := New(cl, 42)
	c := cl.Space().Default()
	q := joinQuery()
	for i := 0; i < 10; i++ {
		r1 := runOneQuery(s1, q, c, 200)
		r2 := runOneQueryAt(s2, uint64(i), q, c, 200)
		if r1.Sec != r2.Sec || r1.GCSec != r2.GCSec {
			t.Fatalf("run %d: counter-claimed and explicit-index results differ", i)
		}
	}
}

// Runs draw from pooled, re-seeded generators. Every result must equal the
// one a freshly allocated source of the same seed gives, at any worker count
// (workers share the pool), and a run must no longer allocate its source.
func TestPooledRNGMatchesFreshSource(t *testing.T) {
	cl := X86()
	app := testApp()
	space := cl.Space()
	rng := rand.New(rand.NewSource(23))
	cs := make([]conf.Config, 40)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	sizes := func(i int) float64 { return 100 + 50*float64(i%3) }
	const seed = 41
	fresh := func(idx uint64) *rand.Rand { return rand.New(rand.NewSource(stat.SplitSeed(seed, idx))) }

	oracle := New(cl, seed)
	wantApp := make([]AppResult, len(cs))
	wantQuery := make([]QueryResult, len(cs))
	for i, c := range cs {
		wantApp[i] = oracle.runApp(fresh(uint64(i)), app, c, sizes(i), nil)
		e := deriveEnv(cl, c)
		jq := joinQuery()
		wantQuery[i] = oracle.runQuery(fresh(uint64(i)), &e, &jq, c, sizes(i))
	}
	for _, workers := range []int{1, 2, 4} {
		s := New(cl, seed)
		first := s.ReserveRuns(len(cs))
		var wg sync.WaitGroup
		gotApp := make([]AppResult, len(cs))
		gotQuery := make([]QueryResult, len(cs))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(cs); i += workers {
					gotApp[i] = s.RunAppAt(first+uint64(i), app, cs[i], sizes(i), nil)
					gotQuery[i] = runOneQueryAt(s, uint64(i), joinQuery(), cs[i], sizes(i))
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(gotApp, wantApp) {
			t.Fatalf("workers=%d: RunAppAt over pooled generators diverges from fresh sources", workers)
		}
		if !reflect.DeepEqual(gotQuery, wantQuery) {
			t.Fatalf("workers=%d: RunQueryAt over pooled generators diverges from fresh sources", workers)
		}
	}

	// What is left is the result's query slice (the fresh-source run made
	// two more: the source and its rand.Rand).
	s := New(cl, seed)
	if allocs := testing.AllocsPerRun(100, func() { s.RunAppAt(3, app, cs[3], 100, nil) }); allocs > 1 {
		t.Fatalf("RunAppAt allocates %v times per run, want at most 1", allocs)
	}
	// Handed that slice back, a run fills it in place and allocates nothing.
	want := s.RunAppAt(3, app, cs[3], 100, nil)
	buf := make([]QueryResult, 0, len(app.Queries))
	if got := s.RunAppAt(3, app, cs[3], 100, buf); !reflect.DeepEqual(got, want) || &got.Queries[0] != &buf[:1][0] {
		t.Fatalf("RunAppAt into a buffer: %+v, want %+v in the buffer's array", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = s.RunAppAt(3, app, cs[3], 100, buf).Queries }); allocs > 0 {
		t.Fatalf("RunAppAt into a reused buffer allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { runOneQueryAt(s, 3, joinQuery(), cs[3], 100) }); allocs > 0 {
		t.Fatalf("RunQueryAt allocates %v times per run, want 0", allocs)
	}
}
