package runner

import (
	"math/rand"
	"strings"
	"testing"

	"locat/internal/conf"
	"locat/internal/obs"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// TestObservedTransparent pins that the Observed wrapper reproduces the
// bare backend's results bit-for-bit while the tally and metrics sinks see
// every execution.
func TestObservedTransparent(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.TPCH()
	space := cl.Space()

	bare := NewSim(sparksim.New(cl, 3))
	var tally Tally
	reg := obs.NewRegistry()
	wrapped := Observe(NewSim(sparksim.New(cl, 3)), &tally, NewRunMetrics(reg))

	rng := rand.New(rand.NewSource(5))
	cs := make([]conf.Config, 4)
	for i := range cs {
		cs[i] = space.Random(rng)
	}

	var wantSec, gotSec float64
	for _, c := range cs {
		a := bare.RunApp(app, c, 100)
		b := wrapped.RunApp(app, c, 100)
		if a.Sec != b.Sec {
			t.Fatalf("RunApp diverged: %v vs %v", a.Sec, b.Sec)
		}
		wantSec += a.Sec
		gotSec += b.Sec
	}

	ra, _ := RunBatch(bare, app, cs, func(int) float64 { return 100 }, 2, nil)
	rb, _ := wrapped.RunBatch(app, cs, func(int) float64 { return 100 }, 2, nil)
	for i := range ra {
		if ra[i].Sec != rb[i].Sec {
			t.Fatalf("RunBatch diverged at %d: %v vs %v", i, ra[i].Sec, rb[i].Sec)
		}
		wantSec += ra[i].Sec
	}

	runs, sec := tally.Snapshot()
	if wantRuns := int64(len(cs) + len(cs)); runs != wantRuns {
		t.Fatalf("tally runs = %d, want %d", runs, wantRuns)
	}
	if diff := sec - wantSec; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("tally sec = %v, want %v", sec, wantSec)
	}

	// The registry saw the same executions, labeled by kind.
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`locat_runs_total{kind="app"} 4`,
		`locat_runs_total{kind="batch"} 4`,
		`locat_run_wall_seconds_count{kind="app"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestObservedZeroExtraAllocs pins the acceptance criterion: the observed
// hot path (RunApp through Observed with a Tally and a RunMetrics sink)
// allocates exactly as much as the bare backend — instrumentation itself
// adds zero allocations per run.
func TestObservedZeroExtraAllocs(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.HiBenchJoin() // small app: allocation noise floor
	c := cl.Space().Default()

	bare := NewSim(sparksim.New(cl, 3))
	var tally Tally
	reg := obs.NewRegistry()
	wrapped := Observe(NewSim(sparksim.New(cl, 3)), &tally, NewRunMetrics(reg))

	base := testing.AllocsPerRun(200, func() { bare.RunApp(app, c, 100) })
	instr := testing.AllocsPerRun(200, func() { wrapped.RunApp(app, c, 100) })
	if instr > base {
		t.Fatalf("observed RunApp allocates %v/op vs bare %v/op; instrumentation must add 0", instr, base)
	}
}

// BenchmarkRunnerBare and BenchmarkRunnerObserved are the
// instrumented-vs-bare hot-path pair the CI bench smoke runs.
func BenchmarkRunnerBare(b *testing.B) {
	cl := sparksim.ARM()
	app := workloads.HiBenchJoin()
	c := cl.Space().Default()
	r := NewSim(sparksim.New(cl, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunApp(app, c, 100)
	}
}

func BenchmarkRunnerObserved(b *testing.B) {
	cl := sparksim.ARM()
	app := workloads.HiBenchJoin()
	c := cl.Space().Default()
	var tally Tally
	reg := obs.NewRegistry()
	r := Observe(NewSim(sparksim.New(cl, 3)), &tally, NewRunMetrics(reg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunApp(app, c, 100)
	}
}
