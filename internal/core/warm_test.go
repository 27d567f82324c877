package core

import (
	"math"
	"testing"

	"locat/internal/bo"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// priorFromReport converts a finished session's full-application history
// into a Prior, the way the tuning service's history store does.
func priorFromReport(rep *Report) *Prior {
	p := &Prior{}
	for _, e := range rep.History {
		if !e.FullApp {
			continue
		}
		p.Obs = append(p.Obs, PriorObs{
			Conf: e.Conf, DataGB: e.DataGB, Sec: e.Sec, QuerySecs: e.QuerySecs,
		})
	}
	if rep.QCSA != nil {
		p.Sensitive = append([]string(nil), rep.QCSA.Sensitive...)
	}
	if rep.IICP != nil {
		p.Important = append([]int(nil), rep.IICP.Important...)
	}
	return p
}

func TestPhaseOverheadAccounting(t *testing.T) {
	sim := sparksim.New(sparksim.ARM(), 11)
	rep, err := New(sim, workloads.TPCH(), quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplingSec <= 0 || rep.SearchSec <= 0 {
		t.Fatalf("per-phase overhead not populated: sampling %v search %v",
			rep.SamplingSec, rep.SearchSec)
	}
	if math.Abs(rep.SamplingSec+rep.SearchSec-rep.OverheadSec) > 1e-6 {
		t.Fatalf("phases %v+%v do not sum to total %v",
			rep.SamplingSec, rep.SearchSec, rep.OverheadSec)
	}
	if rep.WarmStarted || rep.PriorObsUsed != 0 {
		t.Fatal("cold session reported as warm")
	}
}

func TestWarmStartFromPrior(t *testing.T) {
	app := workloads.TPCH()

	cold := func(seed int64, gb float64) *Report {
		sim := sparksim.New(sparksim.ARM(), seed)
		rep, err := New(sim, app, quickOpts()).Tune(gb)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// A finished session at 100 GB becomes the prior for a neighboring
	// 140 GB target.
	first := cold(21, 100)
	prior := priorFromReport(first)

	o := quickOpts()
	o.Prior = prior
	sim := sparksim.New(sparksim.ARM(), 22)
	warm, err := New(sim, app, o).Tune(140)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("session did not warm-start despite a sufficient prior")
	}
	if warm.PriorObsUsed != len(prior.Obs) {
		t.Fatalf("PriorObsUsed = %d, want %d", warm.PriorObsUsed, len(prior.Obs))
	}
	if warm.FullRuns != 4 {
		t.Fatalf("warm session ran %d full-app anchors, want WarmFreshRuns=4", warm.FullRuns)
	}
	if warm.QCSA == nil || len(warm.QCSA.Sensitive) != len(prior.Sensitive) {
		t.Fatal("prior QCSA artifact not reused")
	}
	if warm.IICP == nil || len(warm.IICP.Important) != len(prior.Important) {
		t.Fatal("prior IICP artifact not reused")
	}
	if math.Abs(warm.SamplingSec+warm.SearchSec-warm.OverheadSec) > 1e-6 {
		t.Fatalf("phases %v+%v do not sum to total %v",
			warm.SamplingSec, warm.SearchSec, warm.OverheadSec)
	}

	// The headline claim: tuning the neighboring size warm costs less
	// simulated cluster time than tuning it cold.
	coldNeighbor := cold(22, 140)
	if warm.OverheadSec >= coldNeighbor.OverheadSec {
		t.Fatalf("warm overhead %v not below cold overhead %v",
			warm.OverheadSec, coldNeighbor.OverheadSec)
	}

	// And the warm result must still beat the Spark defaults.
	def := sparksim.New(sparksim.ARM(), 22).NoiselessAppTime(app, sim.Space().Default(), 140)
	if warm.TunedSec >= def {
		t.Fatalf("warm-tuned %v not better than default %v", warm.TunedSec, def)
	}
}

func TestWarmStartRequiresEnoughObs(t *testing.T) {
	sim := sparksim.New(sparksim.ARM(), 31)
	app := workloads.TPCH()
	o := quickOpts()
	o.Prior = &Prior{Obs: make([]PriorObs, minWarmObs-1)}
	// Too few observations: the prior must be ignored, not crash the cold
	// pipeline.
	rep, err := New(sim, app, o).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarted {
		t.Fatal("warm-started on an insufficient prior")
	}
	if rep.FullRuns != o.NQCSA {
		t.Fatalf("FullRuns = %d; want the cold N_QCSA %d", rep.FullRuns, o.NQCSA)
	}
}

func TestWarmStartRequiresDAGP(t *testing.T) {
	first, err := New(sparksim.New(sparksim.ARM(), 41), workloads.TPCH(), quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.Prior = priorFromReport(first)
	o.UseDAGP = false
	rep, err := New(sparksim.New(sparksim.ARM(), 42), workloads.TPCH(), o).Tune(140)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarted {
		t.Fatal("warm-started without the DAGP, which the size transfer requires")
	}
}

func TestStopHook(t *testing.T) {
	sim := sparksim.New(sparksim.ARM(), 51)
	o := quickOpts()
	calls := 0
	o.Halt = haltWhen(ErrStopped, func() bool { calls++; return calls > 3 })
	_, err := New(sim, workloads.TPCH(), o).Tune(100)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestSessionReservesPhaseTwo: the storage a session reserves before phase 1
// is exactly phase 2's largest training set — the init steps restrict builds
// plus MaxIter — warm, then cold in the warm session's workspace, so neither
// phase regrows it and no session holds more than it uses, whatever the
// workspace's last session reserved. A change to how init is built that
// initLen does not follow fails here, and so does a reservation the cold
// session carries over from the larger warm one.
func TestSessionReservesPhaseTwo(t *testing.T) {
	singlePool(t)
	app := workloads.TPCH()
	first, err := New(sparksim.New(sparksim.ARM(), 21), app, quickOpts()).Tune(100)
	if err != nil {
		t.Fatal(err)
	}
	last := 0 // the reservation of the session that returned the workspace
	for _, warm := range []bool{true, false} {
		o := quickOpts()
		if warm {
			o.Prior = priorFromReport(first)
		}
		ws := workspaces.Get().(*bo.Workspace)
		if got := ws.Reserve(0); !warm && !raceEnabled && got != last {
			t.Fatalf("the cold session found a workspace reserved for %d rows, the warm session's is %d", got, last)
		}
		s := New(sparksim.New(sparksim.ARM(), 22), app, o).newSession(140, ws)
		for _, stage := range []func() error{s.sample, s.reduce, s.restrict} {
			if err := stage(); err != nil {
				t.Fatal(err)
			}
		}
		if (s.prior != nil) != warm {
			t.Fatalf("warm %v: session prior %v", warm, s.prior != nil)
		}
		got, want := s.ws.Reserve(0), len(s.init)+o.MaxIter
		if got != want {
			t.Fatalf("warm %v: reserved %d rows, phase 2 trains on up to %d", warm, got, want)
		}
		last = got
		workspaces.Put(s.ws)
	}
}
