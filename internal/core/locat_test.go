package core

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// quickOpts shrink the loop for tests while keeping the full pipeline.
func quickOpts() Options {
	o := DefaultOptions()
	o.NQCSA = 12
	o.NIICP = 10
	o.MaxIter = 12
	o.MinIter = 5
	o.MCMCSamples = 2
	return o
}

func TestTuneTPCH(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 1)
	app := workloads.TPCH()
	tuner := New(sim, app, quickOpts())
	rep, err := tuner.Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRuns != 12 {
		t.Fatalf("FullRuns = %d; want 12 (N_QCSA)", rep.FullRuns)
	}
	if rep.RQARuns < 5 || rep.RQARuns > 12 {
		t.Fatalf("RQARuns = %d; want within [MinIter, MaxIter]", rep.RQARuns)
	}
	if rep.QCSA == nil || rep.IICP == nil {
		t.Fatal("missing analysis artifacts")
	}
	if len(rep.History) != rep.Evaluations() {
		t.Fatalf("history %d != evaluations %d", len(rep.History), rep.Evaluations())
	}
	var sum float64
	for _, e := range rep.History {
		sum += e.Sec
	}
	if math.Abs(sum-rep.OverheadSec) > 1e-6 {
		t.Fatalf("overhead %v != history sum %v", rep.OverheadSec, sum)
	}
	if err := sim.Space().Validate(rep.Best); err != nil {
		t.Fatalf("best config invalid: %v", err)
	}
	// The tuned configuration must beat the Spark defaults.
	def := sim.NoiselessAppTime(app, sim.Space().Default(), 100)
	if rep.TunedSec >= def {
		t.Fatalf("tuned %v not better than default %v", rep.TunedSec, def)
	}
}

func TestRQARunsAreCheaper(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 2)
	app := workloads.TPCDS()
	tuner := New(sim, app, quickOpts())
	rep, err := tuner.Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	// Mean RQA run must be well below mean full run — that is QCSA's whole
	// point (shorter sample collection).
	var fullSum, rqaSum float64
	var nFull, nRQA int
	for _, e := range rep.History {
		if e.FullApp {
			fullSum += e.Sec
			nFull++
		} else {
			rqaSum += e.Sec
			nRQA++
		}
	}
	if nFull == 0 || nRQA == 0 {
		t.Fatal("missing run kinds")
	}
	if rqaSum/float64(nRQA) >= 0.9*fullSum/float64(nFull) {
		t.Fatalf("RQA runs (%v avg) not cheaper than full runs (%v avg)",
			rqaSum/float64(nRQA), fullSum/float64(nFull))
	}
}

func TestAblationDisableQCSA(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 3)
	app := workloads.TPCH()
	o := quickOpts()
	o.UseQCSA = false
	rep, err := New(sim, app, o).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QCSA != nil {
		t.Fatal("QCSA artifact present despite being disabled")
	}
	if rep.RQARuns != 0 {
		t.Fatalf("RQARuns = %d; want 0 when QCSA disabled", rep.RQARuns)
	}
}

func TestAblationDisableIICP(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 4)
	app := workloads.TPCH()
	o := quickOpts()
	o.UseIICP = false
	rep, err := New(sim, app, o).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IICP != nil {
		t.Fatal("IICP artifact present despite being disabled")
	}
}

func TestOnlineDataSchedule(t *testing.T) {
	// The online scenario: input size changes across tuning runs; the DAGP
	// shares observations across sizes and the tuner still returns a valid
	// configuration evaluated at the target size.
	cl := sparksim.X86()
	sim := sparksim.New(cl, 5)
	app := workloads.TPCH()
	sizes := []float64{100, 200, 300, 400, 500}
	o := quickOpts()
	o.DataSchedule = func(run int) float64 { return sizes[run%len(sizes)] }
	rep, err := New(sim, app, o).Tune(300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, e := range rep.History {
		seen[e.DataGB] = true
	}
	if len(seen) != len(sizes) {
		t.Fatalf("observed sizes %v; want all of %v", seen, sizes)
	}
	if err := sim.Space().Validate(rep.Best); err != nil {
		t.Fatalf("best config invalid: %v", err)
	}
	def := sim.NoiselessAppTime(app, sim.Space().Default(), 300)
	if rep.TunedSec >= def {
		t.Fatalf("online-tuned %v not better than default %v", rep.TunedSec, def)
	}
}

func TestTuneErrors(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 6)
	tuner := New(sim, workloads.TPCH(), quickOpts())
	if _, err := tuner.Tune(0); err == nil {
		t.Fatal("zero data size accepted")
	}
	if _, err := tuner.Tune(-5); err == nil {
		t.Fatal("negative data size accepted")
	}
	for _, gb := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := tuner.Tune(gb); err == nil {
			t.Fatalf("data size %v accepted", gb)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Report {
		cl := sparksim.ARM()
		sim := sparksim.New(cl, 7)
		rep, err := New(sim, workloads.TPCH(), quickOpts()).Tune(100)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TunedSec != b.TunedSec || a.OverheadSec != b.OverheadSec ||
		a.Evaluations() != b.Evaluations() {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("best configs diverged at param %d", i)
		}
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.NQCSA != 30 || o.NIICP != 20 ||
		o.MinIter != 10 || o.EIStopFrac != 0.10 {
		t.Fatalf("defaults diverge from the paper: %+v", o)
	}
	if !o.UseQCSA || !o.UseIICP || !o.UseDAGP {
		t.Fatal("techniques not enabled by default")
	}
}

func TestWarmStartReusesPhase1(t *testing.T) {
	// Phase 2 must start from the phase-1 observations: its BO history
	// includes them as Init steps, so the subspace search never re-explores
	// from scratch. Observable effect: RQA runs alone are fewer than the
	// phase-2 budget would allow from a cold start, and tuning still beats
	// the best phase-1 sample.
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 9)
	app := workloads.TPCH()
	o := quickOpts()
	rep, err := New(sim, app, o).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	bestFull := math.Inf(1)
	for _, e := range rep.History {
		if e.FullApp && e.Sec < bestFull {
			bestFull = e.Sec
		}
	}
	// The final tuned latency should not be dramatically worse than the
	// best full-app observation (it is a noiseless evaluation, so allow a
	// noise margin).
	if rep.TunedSec > bestFull*1.5 {
		t.Fatalf("tuned %v much worse than best phase-1 sample %v", rep.TunedSec, bestFull)
	}
}

func TestIICPSubspaceSmallerThanFull(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 10)
	rep, err := New(sim, workloads.TPCDS(), quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.IICP.NumImportant(); n <= 0 || n >= 38 {
		t.Fatalf("important-parameter count %d not a strict subset", n)
	}
}

// intoProbe records the into of every run a session makes; RunApp passes
// none.
type intoProbe struct {
	runner.Runner
	mu    sync.Mutex
	intos [][]runner.QueryResult
}

func (p *intoProbe) RunApp(app *runner.Application, c conf.Config, dataGB float64) runner.AppResult {
	return p.RunAppAt(p.ReserveRuns(1), app, c, dataGB, nil)
}

func (p *intoProbe) RunAppAt(idx uint64, app *runner.Application, c conf.Config, dataGB float64, into []runner.QueryResult) runner.AppResult {
	p.mu.Lock()
	p.intos = append(p.intos, into)
	p.mu.Unlock()
	return p.Runner.RunAppAt(idx, app, c, dataGB, into)
}

// TestSearchRunsShareOneQueryBuffer: phase 1's sampling runs, whose results
// fullRuns keeps for QCSA, get no buffer, and every phase-2 run gets the same
// one, the session's.
func TestSearchRunsShareOneQueryBuffer(t *testing.T) {
	probe := &intoProbe{Runner: sparksim.New(sparksim.ARM(), 9)}
	rep, err := New(probe, workloads.TPCH(), quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.intos) != rep.Evaluations() || rep.RQARuns == 0 {
		t.Fatalf("%d runs for %d evaluations, %d of them phase 2's", len(probe.intos), rep.Evaluations(), rep.RQARuns)
	}
	sampling, search := probe.intos[:rep.FullRuns], probe.intos[rep.FullRuns:]
	for i, into := range sampling {
		if into != nil {
			t.Fatalf("sampling run %d got a buffer", i)
		}
	}
	buf := unsafe.SliceData(search[0])
	if buf == nil {
		t.Fatal("the first phase-2 run got no buffer")
	}
	for i, into := range search {
		if unsafe.SliceData(into) != buf {
			t.Fatalf("phase-2 run %d got buffer %p, the first got %p", i, unsafe.SliceData(into), buf)
		}
	}
}
