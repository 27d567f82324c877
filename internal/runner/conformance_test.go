package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"locat/internal/conf"
	"locat/internal/sparksim"
)

// The conformance table: every backend under every wrapper stack must hand
// a caller exactly what the bare backend hands it — results, run-index
// consumption, noiseless semantics, concurrency cap — so the forwarding the
// decorators share can be rewritten without any stack moving.

// probe sits between a stack and the backend and counts what reaches the
// backend, passing the backend's own concurrency cap up so the stack sees
// the production one.
type probe struct {
	Runner
	runs, noiseless atomic.Int64
}

func (p *probe) maxParallel() int { return maxParallelOf(p.Runner) }

func (p *probe) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	p.runs.Add(1)
	return p.Runner.RunApp(app, c, dataGB)
}

func (p *probe) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	p.runs.Add(1)
	return p.Runner.RunAppAt(idx, app, c, dataGB, into)
}

func (p *probe) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	p.noiseless.Add(1)
	return p.Runner.NoiselessAppTime(app, c, dataGB)
}

// rig is one stack under test plus the taps the checks read.
type rig struct {
	probe   *probe
	top     Runner
	tally   Tally // fed by the stack's Observed layer, if it has one
	retries atomic.Int64
	sink    *TraceSink
	sinkBuf *bytes.Buffer

	mu       sync.Mutex
	reported []TraceEntry // the Cache layer's onRun feed
}

func (g *rig) report(e TraceEntry) {
	g.mu.Lock()
	g.reported = append(g.reported, e)
	g.mu.Unlock()
}

// production assembles the service's order: cache(observe(retry(chaos(b)))).
func production(b Runner, g *rig, co ChaosOptions) Runner {
	return NewCache(Observe(
		NewRetrying(NewChaos(b, co), RetryOptions{Sleep: noSleep, OnRetry: func() { g.retries.Add(1) }}),
		&g.tally), nil, g.report)
}

var conformanceBackends = []struct {
	name string
	make func() Runner
}{
	{"fake", func() Runner { return newFakeBackend(3) }},
	{"sim", func() Runner { return NewSim(sparksim.New(sparksim.ARM(), 7)) }},
}

var conformanceStacks = []struct {
	name     string
	observed bool // the stack holds an Observed layer feeding rig.tally
	build    func(b Runner, g *rig) Runner
}{
	{"bare", false, func(b Runner, g *rig) Runner { return b }},
	{"observed", true, func(b Runner, g *rig) Runner { return Observe(b, &g.tally) }},
	{"chaos", false, func(b Runner, g *rig) Runner { return NewChaos(b, ChaosOptions{Seed: 1}) }},
	{"retry", false, func(b Runner, g *rig) Runner {
		return NewRetrying(NewChaos(b, ChaosOptions{Seed: 1}), RetryOptions{Sleep: noSleep})
	}},
	{"cache", false, func(b Runner, g *rig) Runner { return NewCache(b, nil, g.report) }},
	{"record", false, func(b Runner, g *rig) Runner { return NewRecorder(b, g.sink, "s") }},
	{"production", true, func(b Runner, g *rig) Runner { return production(b, g, ChaosOptions{Seed: 1}) }},
	{"production-healed", true, func(b Runner, g *rig) Runner {
		return production(b, g, ChaosOptions{DropRate: 0.5, MaxConsecutive: 2, Seed: 9})
	}},
}

func newRig(backend func() Runner, build func(Runner, *rig) Runner) *rig {
	g := &rig{probe: &probe{Runner: backend()}}
	g.sink, g.sinkBuf = memSink()
	g.top = build(g.probe, g)
	return g
}

// conformanceDrive is the call script every stack answers: serial runs,
// runs at reserved indices claimed out of order, one batch, and the run
// index the backend hands out next.
type conformanceResult struct {
	Apps  []AppResult
	Batch []AppResult
	Next  uint64
}

func conformanceDrive(t *testing.T, r Runner, workers int) conformanceResult {
	t.Helper()
	app := batchApp()
	cs := randomConfigs(r.Space(), 9, 21)
	var out conformanceResult
	for _, c := range cs[:2] {
		out.Apps = append(out.Apps, r.RunApp(app, c, 100))
	}
	first := r.ReserveRuns(2)
	out.Apps = append(out.Apps, r.RunAppAt(first+1, app, cs[2], 120, nil))
	out.Apps = append(out.Apps, r.RunAppAt(first, app, cs[3], 140, nil))
	batch, done := RunBatch(r, app, cs[4:], func(i int) float64 { return 100 + float64(i)*20 }, workers, nil)
	if done != len(cs[4:]) {
		t.Fatalf("batch incomplete: %d of %d", done, len(cs[4:]))
	}
	out.Batch = batch
	out.Next = r.ReserveRuns(1)
	return out
}

// decodeTrace reads back what a rig's recording layer wrote.
func decodeTrace(t *testing.T, g *rig) []TraceEntry {
	t.Helper()
	if err := g.sink.Close(); err != nil {
		t.Fatal(err)
	}
	var out []TraceEntry
	dec := json.NewDecoder(g.sinkBuf)
	for {
		var e TraceEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

func countKind(entries []TraceEntry, kind TraceKind) int {
	n := 0
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestConformance(t *testing.T) {
	for _, be := range conformanceBackends {
		for _, st := range conformanceStacks {
			id := be.name + "/" + st.name
			t.Run(id, func(t *testing.T) {
				// The pool's clamp reads the backend's cap through every layer.
				if got, want := maxParallelOf(newRig(be.make, st.build).top), maxParallelOf(be.make()); got != want {
					t.Fatalf("stack caps concurrency at %d, the bare backend at %d", got, want)
				}
				for _, workers := range []int{1, 2, 4} {
					bare := conformanceDrive(t, be.make(), workers)
					g := newRig(be.make, st.build)
					got := conformanceDrive(t, g.top, workers)
					if !reflect.DeepEqual(got, bare) {
						t.Fatalf("workers=%d: stack diverged from the bare backend\n got %+v\nwant %+v", workers, got, bare)
					}
					// Every run reached the backend exactly once: drops and
					// retries above the probe never touch it.
					nRuns := int64(len(bare.Apps) + len(bare.Batch))
					if n := g.probe.runs.Load(); n != nRuns {
						t.Fatalf("workers=%d: backend executed %d runs, want %d", workers, n, nRuns)
					}
					if st.name == "production-healed" && g.retries.Load() == 0 {
						t.Fatal("healed-drop schedule dropped nothing")
					}
					if err := BackendErr(g.top); err != nil {
						t.Fatalf("healthy stack reports %v", err)
					}
					conformanceNoiseless(t, g, st.observed, nRuns)
				}
			})
		}
	}
}

// TestConformanceInto holds RunAppAt's into rule through every stack: a
// reused buffer gets what a nil call gets at the same index, in the buffer's
// own array when its capacity suffices, and what a Cache layer keeps (its
// onRun feed, the recorded trace, the entries a hit is served from) is a
// copy that the caller's later writes to the buffer do not reach.
func TestConformanceInto(t *testing.T) {
	app := batchApp()
	scribble := func(qs []QueryResult) {
		for i := range qs {
			qs[i] = QueryResult{Name: "scribbled", Sec: -1}
		}
	}
	// run drives r over cs at fresh indices, through buf when it is not nil,
	// and scribbles over buf after each run.
	run := func(t *testing.T, r Runner, cs []conf.Config, buf []QueryResult) []AppResult {
		t.Helper()
		var out []AppResult
		for i, c := range cs {
			res := r.RunAppAt(r.ReserveRuns(1), app, c, 100+float64(i)*20, buf)
			if buf != nil {
				if len(res.Queries) == 0 || &res.Queries[0] != &buf[:1][0] {
					t.Fatalf("run %d: result does not share the buffer's array", i)
				}
				out = append(out, resultInto(res, nil))
				scribble(res.Queries)
			} else {
				out = append(out, res)
			}
		}
		return out
	}
	for _, be := range conformanceBackends {
		for _, st := range conformanceStacks {
			t.Run(be.name+"/"+st.name, func(t *testing.T) {
				ref, g := newRig(be.make, st.build), newRig(be.make, st.build)
				cs := randomConfigs(g.top.Space(), 4, 33)
				want := run(t, ref.top, cs, nil)
				if got := run(t, g.top, cs, make([]QueryResult, 0, len(app.Queries))); !reflect.DeepEqual(got, want) {
					t.Fatalf("runs into a reused buffer diverge from nil calls\n got %+v\nwant %+v", got, want)
				}
				if !reflect.DeepEqual(g.reported, ref.reported) {
					t.Fatalf("cache kept %+v, want %+v", g.reported, ref.reported)
				}
				if got, want := decodeTrace(t, g), decodeTrace(t, ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("recorded trace %+v, want %+v", got, want)
				}
			})
		}
		t.Run(be.name+"/hit", func(t *testing.T) {
			var paid []TraceEntry
			cs := randomConfigs(be.make().Space(), 4, 33)
			want := run(t, NewCache(be.make(), nil, func(e TraceEntry) { paid = append(paid, e) }), cs, nil)
			kept := make([]AppResult, len(paid))
			for i, e := range paid {
				kept[i] = resultInto(*e.Result, nil)
			}
			replay := NewCache(be.make(), paid, nil)
			if got := run(t, replay, cs, make([]QueryResult, 0, len(app.Queries))); !reflect.DeepEqual(got, want) {
				t.Fatalf("hits into a reused buffer diverge from the paid runs\n got %+v\nwant %+v", got, want)
			}
			if n := replay.ResumedRuns(); n != int64(len(cs)) {
				t.Fatalf("served %d of %d runs from the entries", n, len(cs))
			}
			for i, e := range paid {
				if !reflect.DeepEqual(*e.Result, kept[i]) {
					t.Fatalf("entry %d changed under the caller's writes: %+v, want %+v", i, *e.Result, kept[i])
				}
			}
		})
	}
}

// conformanceNoiseless pins the deterministic-evaluation contract through a
// driven stack: the bare value, no run index reserved, no observer reached,
// one report/record per key.
func conformanceNoiseless(t *testing.T, g *rig, observed bool, nRuns int64) {
	t.Helper()
	app := batchApp()
	space := g.top.Space()
	keys := []conf.Config{space.Default(), randomConfigs(space, 1, 5)[0]}
	before := g.top.ReserveRuns(1)
	for rep := 0; rep < 3; rep++ {
		for _, c := range keys {
			if got, want := g.top.NoiselessAppTime(app, c, 100), g.probe.Runner.NoiselessAppTime(app, c, 100); got != want {
				t.Fatalf("NoiselessAppTime %v through the stack, %v bare", got, want)
			}
		}
	}
	if after := g.top.ReserveRuns(1); after != before+1 {
		t.Fatalf("NoiselessAppTime reserved run indices: %d -> %d", before, after)
	}
	if n := g.probe.runs.Load(); n != nRuns {
		t.Fatalf("NoiselessAppTime executed runs: %d, want %d", n, nRuns)
	}
	if observed {
		if n, _ := g.tally.Snapshot(); n != nRuns {
			t.Fatalf("observer saw %d executions, want %d (noiseless must not be observed)", n, nRuns)
		}
	}
	g.mu.Lock()
	reported := append([]TraceEntry(nil), g.reported...)
	g.mu.Unlock()
	if len(reported) > 0 {
		if n := countKind(reported, TraceNoiseless); n != len(keys) {
			t.Fatalf("cache reported %d noiseless entries, want one per key (%d)", n, len(keys))
		}
		if n := countKind(reported, TraceApp); int64(n) != nRuns {
			t.Fatalf("cache reported %d app entries, want %d", n, nRuns)
		}
	}
	if recorded := decodeTrace(t, g); len(recorded) > 0 {
		if n := countKind(recorded, TraceNoiseless); n != len(keys) {
			t.Fatalf("recorder wrote %d noiseless entries, want one per key (%d)", n, len(keys))
		}
		if n := countKind(recorded, TraceApp); int64(n) != nRuns {
			t.Fatalf("recorder wrote %d app entries, want %d", n, nRuns)
		}
	}
}

// A dropped attempt never reaches the backend, and a backend gone sticky
// after FailAfter still answers noiseless evaluations — alone and through
// the production order.
func TestConformanceFaults(t *testing.T) {
	for _, be := range conformanceBackends {
		t.Run(be.name, func(t *testing.T) {
			app := batchApp()

			p := &probe{Runner: be.make()}
			chaos := NewChaos(p, ChaosOptions{DropRate: 1, MaxConsecutive: 1, Seed: 3})
			c := chaos.Space().Default()
			idx := chaos.ReserveRuns(1)
			if res, err := chaos.tryRunAppAt(idx, app, c, 100, nil); !errors.As(err, new(*errChaosDrop)) || res.Sec != 0 {
				t.Fatalf("first attempt: got %+v, %v; want a drop", res, err)
			}
			if n := p.runs.Load(); n != 0 {
				t.Fatalf("dropped attempt reached the backend %d times", n)
			}
			want := be.make().RunApp(app, c, 100)
			if res, err := chaos.tryRunAppAt(idx, app, c, 100, nil); err != nil || !reflect.DeepEqual(res, want) {
				t.Fatalf("healed attempt: got %+v, %v; want the bare result", res, err)
			}
			if n := p.runs.Load(); n != 1 {
				t.Fatalf("healed attempt executed %d runs, want 1", n)
			}

			for _, stack := range []string{"chaos", "production"} {
				g := newRig(be.make, func(b Runner, g *rig) Runner {
					if stack == "chaos" {
						return NewChaos(b, ChaosOptions{FailAfter: 1, Seed: 1})
					}
					return production(b, g, ChaosOptions{FailAfter: 1, Seed: 1})
				})
				if res := g.top.RunApp(app, c, 100); res.Sec == 0 {
					t.Fatalf("%s: run before FailAfter failed", stack)
				}
				if err := BackendErr(g.top); !errors.Is(err, ErrChaosFailed) {
					t.Fatalf("%s: err = %v, want ErrChaosFailed", stack, err)
				}
				if res := g.top.RunApp(app, c, 100); res.Sec != 0 {
					t.Fatalf("%s: run after the sticky failure returned a result", stack)
				}
				if n := g.probe.runs.Load(); n != 1 {
					t.Fatalf("%s: backend executed %d runs, want 1", stack, n)
				}
				if got, want := g.top.NoiselessAppTime(app, c, 100), g.probe.Runner.NoiselessAppTime(app, c, 100); got != want || got == 0 {
					t.Fatalf("%s: NoiselessAppTime after FailAfter = %v, want %v", stack, got, want)
				}
			}
		})
	}
}
