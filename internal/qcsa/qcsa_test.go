package qcsa

import (
	"math/rand"
	"testing"

	"locat/internal/sparksim"
	"locat/internal/workloads"
)

func collectRuns(t *testing.T, n int, seed int64) (*sparksim.Application, []sparksim.AppResult) {
	t.Helper()
	cl := sparksim.ARM()
	sim := sparksim.New(cl, seed)
	space := cl.Space()
	app := workloads.TPCDS()
	rng := rand.New(rand.NewSource(seed))
	runs := make([]sparksim.AppResult, 0, n)
	for i := 0; i < n; i++ {
		runs = append(runs, sim.RunApp(app, space.Random(rng), 100))
	}
	return app, runs
}

func TestAnalyzeErrors(t *testing.T) {
	app, runs := collectRuns(t, 3, 1)
	if _, err := Analyze(app, runs[:1]); err == nil {
		t.Fatal("single run accepted")
	}
	bad := []sparksim.AppResult{runs[0], {Queries: runs[1].Queries[:5]}}
	if _, err := Analyze(app, bad); err == nil {
		t.Fatal("short run accepted")
	}
}

func TestAnalyzeClassification(t *testing.T) {
	app, runs := collectRuns(t, 30, 7)
	res, err := Analyze(app, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 104 {
		t.Fatalf("got %d query CVs", len(res.Queries))
	}
	// CVs sorted descending.
	for i := 1; i < len(res.Queries); i++ {
		if res.Queries[i].CV > res.Queries[i-1].CV {
			t.Fatal("CVs not sorted")
		}
	}
	// Partition rule.
	wantCut := res.MinCV + (res.MaxCV-res.MinCV)/3
	if res.Cut != wantCut {
		t.Fatalf("Cut = %v; want %v", res.Cut, wantCut)
	}
	if len(res.Sensitive)+len(res.Insensitive) != 104 {
		t.Fatal("classification does not partition the queries")
	}
	for _, q := range res.Queries {
		if q.Sensitive != (q.CV >= res.Cut) {
			t.Fatalf("query %s misclassified", q.Name)
		}
	}
	// The paper's Section 5.2 result: ≈23 of 104 queries kept, dominated by
	// the known sensitive set.
	if n := len(res.Sensitive); n < 18 || n > 28 {
		t.Fatalf("kept %d queries; want ≈23", n)
	}
	inPaper := map[string]bool{}
	for _, n := range workloads.SensitiveTPCDS {
		inPaper[n] = true
	}
	match := 0
	for _, n := range res.Sensitive {
		if inPaper[n] {
			match++
		}
	}
	if match < 20 {
		t.Fatalf("only %d kept queries are in the paper's sensitive set", match)
	}
}

func TestRQAConsistency(t *testing.T) {
	app, runs := collectRuns(t, 30, 8)
	res, err := Analyze(app, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RQA.Queries) != len(res.Sensitive) {
		t.Fatalf("RQA has %d queries; Sensitive lists %d", len(res.RQA.Queries), len(res.Sensitive))
	}
	// RQA preserves application order and keeps only sensitive queries.
	sens := map[string]bool{}
	for _, n := range res.Sensitive {
		sens[n] = true
	}
	pos := 0
	for _, q := range app.Queries {
		if sens[q.Name] {
			if res.RQA.Queries[pos].Name != q.Name {
				t.Fatal("RQA order broken")
			}
			pos++
		}
	}
	// The RQA must be meaningfully cheaper than the full application, but
	// still carry a substantial share (the CSQs are the long shuffle-heavy
	// queries).
	if res.RQATimeFrac <= 0.15 || res.RQATimeFrac >= 0.95 {
		t.Fatalf("RQATimeFrac = %v; want in (0.15, 0.95)", res.RQATimeFrac)
	}
}

func TestMeanCVWithinMaxCV(t *testing.T) {
	app, runs := collectRuns(t, 10, 9)
	res, err := Analyze(app, runs)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MeanCV(); m <= 0 || m > res.MaxCV {
		t.Fatalf("MeanCV = %v", m)
	}
}

// TestMeanCVConverges reproduces the Figure 7 phenomenon: the mean CV rises
// with the sample count and flattens around N_QCSA = 30.
func TestMeanCVConverges(t *testing.T) {
	app, runs := collectRuns(t, 55, 10)
	cvAt := func(n int) float64 {
		res, err := Analyze(app, runs[:n])
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCV()
	}
	cv10, cv30, cv50 := cvAt(10), cvAt(30), cvAt(50)
	if cv10 >= cv30 {
		t.Fatalf("mean CV did not grow from 10 (%v) to 30 (%v) samples", cv10, cv30)
	}
	// Beyond 30 the change must be small relative to the 10→30 growth.
	growth := cv30 - cv10
	tail := cv50 - cv30
	if tail < 0 {
		tail = -tail
	}
	if tail > growth {
		t.Fatalf("CV not converged: 10→30 grew %v but 30→50 moved %v", growth, tail)
	}
}
