package workloads

import (
	"math/rand"
	"sort"
	"testing"

	"locat/internal/sparksim"
	"locat/internal/stat"
)

func TestSuiteInventory(t *testing.T) {
	suites := Suites()
	if len(suites) != 5 {
		t.Fatalf("got %d suites; want 5 (Table 1)", len(suites))
	}
	wantNames := []string{"TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"}
	wantQueries := []int{104, 22, 1, 1, 1}
	for i, app := range suites {
		if app.Name != wantNames[i] {
			t.Fatalf("suite %d = %q; want %q", i, app.Name, wantNames[i])
		}
		if len(app.Queries) != wantQueries[i] {
			t.Fatalf("%s has %d queries; want %d", app.Name, len(app.Queries), wantQueries[i])
		}
	}
	if len(DataSizesGB) != 5 || DataSizesGB[0] != 100 || DataSizesGB[4] != 500 {
		t.Fatalf("DataSizesGB = %v", DataSizesGB)
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"TPC-DS", "TPC-H", "Join", "Scan", "Aggregation"} {
		app, err := ByName(n)
		if err != nil || app.Name != n {
			t.Fatalf("ByName(%q) = %v, %v", n, app, err)
		}
		if err := Check(n); err != nil {
			t.Fatalf("Check(%q) = %v", n, err)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
	if cerr := Check("nope"); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("Check(nope) = %v, ByName's error is %v", cerr, err)
	}
}

func TestTPCDSNames(t *testing.T) {
	app := TPCDS()
	seen := map[string]bool{}
	for _, q := range app.Queries {
		if seen[q.Name] {
			t.Fatalf("duplicate query %s", q.Name)
		}
		seen[q.Name] = true
	}
	// The a/b variant pairs of the official 104-query set.
	for _, n := range []string{"Q14a", "Q14b", "Q23a", "Q23b", "Q24a", "Q24b", "Q39a", "Q39b", "Q64a", "Q64b"} {
		if !seen[n] {
			t.Fatalf("missing variant %s", n)
		}
	}
	if !seen["Q01"] || !seen["Q99"] {
		t.Fatal("missing boundary queries")
	}
}

func TestProfilesWellFormed(t *testing.T) {
	for _, app := range Suites() {
		for _, q := range app.Queries {
			if q.InputFrac <= 0 || q.InputFrac > 1 {
				t.Fatalf("%s/%s InputFrac %v", app.Name, q.Name, q.InputFrac)
			}
			if q.ShuffleFrac < 0 || q.ShuffleFrac > 1.3 {
				t.Fatalf("%s/%s ShuffleFrac %v", app.Name, q.Name, q.ShuffleFrac)
			}
			if q.Stages < 1 || q.Stages > 8 {
				t.Fatalf("%s/%s Stages %v", app.Name, q.Name, q.Stages)
			}
			if q.CPUWeight <= 0 || q.Skew < 0 || q.Skew >= 1 {
				t.Fatalf("%s/%s CPUWeight/Skew %v/%v", app.Name, q.Name, q.CPUWeight, q.Skew)
			}
			if q.Class == sparksim.Selection && q.Stages != 1 {
				t.Fatalf("%s/%s selection with %d stages", app.Name, q.Name, q.Stages)
			}
		}
	}
}

func TestSensitiveListMatchesProfiles(t *testing.T) {
	if len(SensitiveTPCDS) != 23 {
		t.Fatalf("len(SensitiveTPCDS) = %d; want 23 (Section 5.2)", len(SensitiveTPCDS))
	}
	app := TPCDS()
	byName := map[string]sparksim.Query{}
	for _, q := range app.Queries {
		byName[q.Name] = q
	}
	for _, n := range SensitiveTPCDS {
		q, ok := byName[n]
		if !ok {
			t.Fatalf("sensitive query %s not in TPC-DS", n)
		}
		if eff := q.InputFrac * q.ShuffleFrac; eff < 0.25 {
			t.Fatalf("%s effective shuffle fraction %v too small for a CSQ", n, eff)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := TPCDS(), TPCDS()
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("TPCDS() not deterministic at %s", a.Queries[i].Name)
		}
	}
	h1, h2 := hashFloats("x", 3), hashFloats("x", 3)
	for i := range h1 {
		if h1[i] != h2[i] || h1[i] < 0 || h1[i] >= 1 {
			t.Fatalf("hashFloats not stable/in-range: %v vs %v", h1, h2)
		}
	}
}

// TestQCSAShapeOnARM is the headline phenomenology check: CV analysis over
// 30 random configurations at 100 GB must (a) rank Q72 at the top with
// CV ≈ 3.5, (b) give Q04 a small CV despite its long runtime, and (c) keep
// approximately the paper's 23 sensitive queries under the CV
// three-partition rule.
func TestQCSAShapeOnARM(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 1)
	space := cl.Space()
	app := TPCDS()
	rng := rand.New(rand.NewSource(7))
	times := map[string][]float64{}
	for i := 0; i < 30; i++ {
		c := space.Random(rng)
		for _, qr := range sim.RunApp(app, c, 100).Queries {
			times[qr.Name] = append(times[qr.Name], qr.Sec)
		}
	}
	cvs := map[string]float64{}
	var all []float64
	for n, ts := range times {
		cvs[n] = stat.CV(ts)
		all = append(all, cvs[n])
	}
	sort.Float64s(all)
	maxCV, minCV := all[len(all)-1], all[0]
	if cvs["Q72"] != maxCV {
		t.Errorf("Q72 CV %v is not the maximum %v", cvs["Q72"], maxCV)
	}
	if cvs["Q72"] < 1.8 {
		t.Errorf("Q72 CV = %v; want > 1.8 (paper: 3.49)", cvs["Q72"])
	}
	if cvs["Q04"] > 0.45 {
		t.Errorf("Q04 CV = %v; want < 0.45 (paper: 0.24)", cvs["Q04"])
	}
	cut := minCV + (maxCV-minCV)/3
	kept := map[string]bool{}
	for n, cv := range cvs {
		if cv >= cut {
			kept[n] = true
		}
	}
	if len(kept) < 18 || len(kept) > 28 {
		t.Errorf("CV rule keeps %d queries; want ≈23", len(kept))
	}
	// The kept set must be dominated by the paper's sensitive list.
	match := 0
	for _, n := range SensitiveTPCDS {
		if kept[n] {
			match++
		}
	}
	if match < 20 {
		t.Errorf("only %d/23 of the paper's sensitive queries kept", match)
	}
}

func TestAppScaleSanity(t *testing.T) {
	// Total TPC-DS latency at 100 GB under the default configuration should
	// land in the paper's plausible range (minutes–hour, not seconds/days).
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 1, sparksim.WithNoise(0))
	total := sim.NoiselessAppTime(TPCDS(), cl.Space().Default(), 100)
	if total < 500 || total > 20000 {
		t.Fatalf("TPC-DS default total = %.0fs; want within [500, 20000]", total)
	}
	// HiBench Scan is a single disk-bound query.
	scan := sim.NoiselessAppTime(HiBenchScan(), cl.Space().Default(), 100)
	if scan < 10 || scan > 500 {
		t.Fatalf("Scan default total = %.0fs", scan)
	}
}

func TestTPCHHeavySubset(t *testing.T) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 2)
	space := cl.Space()
	app := TPCH()
	rng := rand.New(rand.NewSource(9))
	times := map[string][]float64{}
	for i := 0; i < 30; i++ {
		c := space.Random(rng)
		for _, qr := range sim.RunApp(app, c, 100).Queries {
			times[qr.Name] = append(times[qr.Name], qr.Sec)
		}
	}
	// Heavy join queries must be clearly more sensitive than Q6 (selection).
	q6 := stat.CV(times["Q06"])
	for _, n := range []string{"Q09", "Q18", "Q21"} {
		if cv := stat.CV(times[n]); cv < 2*q6 {
			t.Errorf("%s CV %v not well above Q06 CV %v", n, cv, q6)
		}
	}
}
