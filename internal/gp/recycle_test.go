package gp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"locat/internal/stat"
)

// modelState is everything a fitted GP computes, with the factor read as L,
// row by row (its storage layout is not part of the model).
type modelState struct {
	X           [][]float64
	Y, Alpha    []float64
	L           [][]float64
	YMean, YStd float64
	Hyp         Hyper
}

func stateOf(g *GP) modelState {
	s := modelState{X: g.x, Y: g.y, Alpha: g.alpha, YMean: g.yMean, YStd: g.yStd, Hyp: g.hyp}
	// mat exports no view of a factor's storage, which only its own tests
	// read, so the rows of U = Lᵀ (stride cols) are read by reflection.
	u := reflect.ValueOf(g.chol).Elem().FieldByName("u").Elem()
	st, data := int(u.FieldByName("cols").Int()), u.FieldByName("data")
	for i := range g.x {
		row := make([]float64, i+1)
		for j := range row {
			row[j] = data.Index(j*st + i).Float()
		}
		s.L = append(s.L, row)
	}
	return s
}

// TestRecycledFitMatchesFresh: TrainSet.Fit into the storage of a discarded
// model — one fitted on fewer points, one on more, one that had been appended
// to — yields the factor and α of a fit into fresh storage, and goes on
// matching it through the appends that follow.
func TestRecycledFitMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	xs, ys := trainSet(40, 5, rng)
	h := Hyper{LogLen: math.Log(0.3), LogSignal: 0.2, LogNoise: math.Log(0.08)}
	for _, predecessor := range []int{8, 24, 25, 40} {
		old, err := NewTrainSet(xs[:predecessor], ys[:predecessor], 1)
		if err != nil {
			t.Fatal(err)
		}
		discarded, err := old.Fit(DefaultHyper(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if predecessor == 24 { // grown past its fit, as a live BO model is
			if err := discarded.Append(xs[24], ys[24]); err != nil {
				t.Fatal(err)
			}
		}
		ts, err := NewTrainSet(xs[:25], ys[:25], 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ts.Fit(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ts.Fit(h, discarded)
		if err != nil {
			t.Fatal(err)
		}
		if got != discarded {
			t.Fatal("the recycled model is not the one handed in")
		}
		for n := 25; ; n++ {
			if w, g := stateOf(want), stateOf(got); !reflect.DeepEqual(w, g) {
				t.Fatalf("predecessor of %d points, %d points: recycled fit differs from fresh\n got %+v\nwant %+v", predecessor, n, g, w)
			}
			if n == 32 {
				break
			}
			if err := want.Append(xs[n], ys[n]); err != nil {
				t.Fatal(err)
			}
			if err := got.Append(xs[n], ys[n]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// oldSampleHyper is the serial SampleHyper before generators and workspaces
// were kept: a fresh workspace per call and a fresh rand.New(rand.NewSource)
// for the pilot and for every chain.
func oldSampleHyper(ts *TrainSet, n int, rng *rand.Rand) []Hyper {
	base := rng.Int63()
	out := make([]Hyper, n)
	var pws FitWorkspace
	pilotRng := rand.New(rand.NewSource(stat.SplitSeed(base, uint64(n))))
	pilotPost := func(h Hyper) float64 { return ts.LogPosterior(h, &pws, 1) }
	start := DefaultHyper()
	startLP := pilotPost(start)
	for it := 0; it < pilotIters; it++ {
		for coord := 0; coord < 3; coord++ {
			start, startLP = sliceStep(pilotPost, start, startLP, coord, sliceWidth, pilotRng)
		}
	}
	for c := range out {
		rng := rand.New(rand.NewSource(stat.SplitSeed(base, uint64(c))))
		logPost := func(h Hyper) float64 { return ts.LogPosterior(h, &pws, 1) }
		cur, curLP := start, startLP
		for it := 0; it <= chainBurn; it++ {
			for coord := 0; coord < 3; coord++ {
				cur, curLP = sliceStep(logPost, cur, curLP, coord, sliceWidth, rng)
			}
		}
		out[c] = cur
	}
	return out
}

// TestSampleHyperInKeptWorkspaceMatchesFresh: one workspace carried through
// resamples over a growing, then a smaller, training set rebuilt in place in
// its storage, with one fit workspace per chain worker — its generators
// re-seeded for every pilot and chain, its buffers regrown or reused — gives
// the samples of the old sampler, at every worker count, and leaves the
// caller's generator where the old one did.
func TestSampleHyperInKeptWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	xs, ys := trainSet(45, 6, rng)
	for _, workers := range []int{1, 2, 4} {
		var w Workspace // its sets are rebuilt in place, its fit workspaces kept
		oldRng, newRng := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		for _, n := range []int{12, 15, 18, 45, 20} {
			ts, err := w.TrainSet(xs[:n], ys[:n], 1)
			if err != nil {
				t.Fatal(err)
			}
			want := oldSampleHyper(ts, 6, oldRng)
			got := w.SampleHyper(ts, 6, newRng, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d n=%d: kept workspace %+v\nfresh %+v", workers, n, got, want)
			}
		}
		if oldRng.Int63() != newRng.Int63() {
			t.Fatalf("workers=%d: the caller's generator diverged", workers)
		}
	}
}

// TestAppendWithinReserveAllocs: a point appended to a model whose factor
// holds reserve costs at most the growth of its row list — no kernel column,
// no standardized targets, no α, no factor copy.
func TestAppendWithinReserveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	xs, ys := trainSet(60, 9, rng)
	ts, err := NewTrainSet(xs[:40], ys[:40], 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ts.Fit(DefaultHyper(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	add := func() {
		if err := g.AppendBatch(xs[n:n+1], ys[n:n+1]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	add() // an exact first fit has no reserve: this append regrows the factor
	if allocs := testing.AllocsPerRun(10, add); allocs > 1 {
		t.Fatalf("AppendBatch of one point within reserve allocates %.0f objects; want ≤ 1", allocs)
	}
}

// TestRebuiltSetMissesCorrelationCache: a FitWorkspace that served a set at
// length-scale ℓ, then a different set built in that set's storage at the
// same ℓ — of the same size, of fewer rows, of more — evaluates the new set
// as a fresh workspace does, bit for bit. The rebuilt set is the same
// *TrainSet, so only its generation tells it from the set the cached
// correlations were taken on.
func TestRebuiltSetMissesCorrelationCache(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	xs, ys := trainSet(70, 6, rng)
	h := Hyper{LogLen: math.Log(0.35), LogSignal: 0.1, LogNoise: math.Log(0.05)}
	moved := h
	moved.LogSignal = -0.3 // same ℓ: a cache hit would only rescale
	for _, next := range [][2]int{{30, 60}, {40, 60}, {10, 60}} {
		var w Workspace
		w.Reserve(60)
		var fit FitWorkspace
		ts, err := w.TrainSet(xs[:30], ys[:30], 1)
		if err != nil {
			t.Fatal(err)
		}
		ts.LogPosterior(h, &fit, 1)
		rebuilt, err := w.TrainSet(xs[next[0]:next[1]], ys[next[0]:next[1]], 1)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt != ts {
			t.Fatal("the set was not rebuilt in place")
		}
		for _, hh := range []Hyper{h, moved} {
			got := rebuilt.LogPosterior(hh, &fit, 1)
			if want := rebuilt.LogPosterior(hh, new(FitWorkspace), 1); got != want {
				t.Fatalf("rows %v: LogPosterior %v in the workspace that served the old set, %v fresh", next, got, want)
			}
		}
	}
}

// TestFailedBatchLeavesModelUnchanged: a batch whose second point cannot
// extend the factor (a NaN feature) leaves the model as it was — factor,
// α, rows — in a factor with and without reserve, and the model then grows
// exactly as one that never saw the batch.
func TestFailedBatchLeavesModelUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	xs, ys := trainSet(30, 4, rng)
	bad := append([]float64(nil), xs[27]...)
	bad[2] = math.NaN()
	for _, capacity := range []int{0, 30} {
		var w Workspace
		w.Reserve(capacity)
		fit := func() *GP {
			ts, err := w.TrainSet(xs[:25], ys[:25], 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ts.Fit(DefaultHyper(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g, want := fit(), fit()
		before := stateOf(g)
		if err := g.AppendBatch([][]float64{xs[25], bad}, []float64{ys[25], ys[27]}); err == nil {
			t.Fatal("a batch with a NaN point was appended")
		}
		if !reflect.DeepEqual(stateOf(g), before) {
			t.Fatalf("capacity %d: the failed batch changed the model", capacity)
		}
		for _, m := range []*GP{g, want} {
			if err := m.AppendBatch(xs[25:27], ys[25:27]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(stateOf(g), stateOf(want)) {
			t.Fatalf("capacity %d: after a failed batch the model grows differently", capacity)
		}
	}
}
