package baselines

import (
	"testing"

	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// smallBudget shrinks every baseline for test speed while preserving its
// algorithmic structure.
func smallBudget() []Tuner {
	return []Tuner{
		&Tuneful{TopK: 6, BOIter: 12},
		&DAC{TrainRuns: 30, Generations: 8, Population: 16, Validate: 4},
		&GBORL{MemProbes: 8, RLSteps: 20},
		&QTune{Generations: 6, Episodes: 8},
	}
}

func TestAllBaselinesTune(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.TPCH()
	for _, tn := range smallBudget() {
		sim := sparksim.New(cl, 1)
		rep, err := tn.Tune(sim, app, 100, 7)
		if err != nil {
			t.Fatalf("%s: %v", tn.Name(), err)
		}
		if rep.Tuner != tn.Name() {
			t.Fatalf("report name %q != tuner %q", rep.Tuner, tn.Name())
		}
		if rep.Runs == 0 || rep.OverheadSec <= 0 {
			t.Fatalf("%s: no accounting (%d runs, %v overhead)", tn.Name(), rep.Runs, rep.OverheadSec)
		}
		if err := sim.Space().Validate(rep.Best); err != nil {
			t.Fatalf("%s: invalid best config: %v", tn.Name(), err)
		}
		if rep.TunedSec <= 0 {
			t.Fatalf("%s: bad tuned latency %v", tn.Name(), rep.TunedSec)
		}
		// Every tuner must at least beat the Spark default configuration.
		def := sim.NoiselessAppTime(app, sim.Space().Default(), 100)
		if rep.TunedSec > def {
			t.Fatalf("%s: tuned %v worse than default %v", tn.Name(), rep.TunedSec, def)
		}
	}
}

func TestAllReturnsPaperOrder(t *testing.T) {
	names := []string{"Tuneful", "DAC", "GBO-RL", "QTune"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d tuners", len(all))
	}
	for i, tn := range all {
		if tn.Name() != names[i] {
			t.Fatalf("tuner %d = %q; want %q", i, tn.Name(), names[i])
		}
	}
}

func TestRunBudgetsOrdering(t *testing.T) {
	// The paper's Figure 2 cost ordering at full budgets: QTune is the most
	// expensive, GBO-RL the cheapest of the four. Check the configured
	// sample budgets reflect that (full budgets, no cluster runs needed).
	// QTune needs by far the most episodes; GBO-RL is the cheapest of the
	// four in run count. (DAC's runs are few but each is an expensive
	// random configuration, which is how its hour-cost lands between them.)
	tf, dac, gb, qt := NewTuneful(), NewDAC(), NewGBORL(), NewQTune()
	tfRuns := 1 + 2*38 + tf.BOIter
	dacRuns := dac.TrainRuns + dac.Validate
	gbRuns := 1 + gb.MemProbes + gb.RLSteps
	qtRuns := qt.Generations * qt.Episodes
	if !(qtRuns > tfRuns && tfRuns > gbRuns) {
		t.Fatalf("budget ordering wrong: qtune=%d tuneful=%d gborl=%d", qtRuns, tfRuns, gbRuns)
	}
	if dacRuns <= 0 {
		t.Fatal("dac budget empty")
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	cl := sparksim.ARM()
	app := workloads.HiBenchAggregation()
	for _, mk := range []func() Tuner{
		func() Tuner { return &Tuneful{TopK: 4, BOIter: 8} },
		func() Tuner { return &GBORL{MemProbes: 5, RLSteps: 10} },
		func() Tuner { return &QTune{Generations: 4, Episodes: 6} },
	} {
		r1, err := mk().Tune(sparksim.New(cl, 3), app, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mk().Tune(sparksim.New(cl, 3), app, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r1.TunedSec != r2.TunedSec || r1.OverheadSec != r2.OverheadSec || r1.Runs != r2.Runs {
			t.Fatalf("%s not deterministic", r1.Tuner)
		}
	}
}

// A full-budget session on the bare simulator allocates what it keeps (the
// configurations it may return, DAC's training set and model, the
// populations), not something per run: a run's per-query results go to the
// session's one buffer, and genomes, episodes and candidates are decoded
// into scratch configurations. Per-run allocation of any of those costs
// DAC, GBO-RL and QTune 2 900, 680 and 2 000 allocations per session;
// these bounds leave room for sync.Pool's dropped generators under -race.
func TestSessionAllocs(t *testing.T) {
	app := workloads.TPCH()
	for _, tc := range []struct {
		tuner func() Tuner
		max   float64
	}{
		{func() Tuner { return NewDAC() }, 1000},
		{func() Tuner { return NewGBORL() }, 400},
		{func() Tuner { return NewQTune() }, 800},
	} {
		n := testing.AllocsPerRun(1, func() {
			if _, err := tc.tuner().Tune(sparksim.New(sparksim.ARM(), 1), app, 100, 7); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("%s session allocates %v times, want at most %v", tc.tuner().Name(), n, tc.max)
		}
	}
}
