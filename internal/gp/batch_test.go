package gp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"locat/internal/mat"
)

func batchTrainingSet(n, d int, rng *rand.Rand) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		var s float64
		for j := range x {
			x[j] = rng.Float64()
			s += math.Sin(3 * x[j] * float64(j+1))
		}
		xs[i] = x
		ys[i] = s + rng.NormFloat64()*0.05
	}
	return xs, ys
}

// PredictBatch must agree with the per-point Predict loop to 1e-10 (the
// operations are in fact identical, so this is generous), with and without a
// caller-provided workspace, on both a freshly fitted and an Append-grown GP.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys := batchTrainingSet(60, 7, rng)
	g, err := Fit(xs, ys, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := Fit(xs[:40], ys[:40], DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.AppendBatch(xs[40:], ys[40:]); err != nil {
		t.Fatal(err)
	}

	tests, _ := batchTrainingSet(50, 7, rng)
	var ws PredictWorkspace
	for name, model := range map[string]*GP{"fit": g, "grown": grown} {
		for pass := 0; pass < 2; pass++ { // second pass reuses the workspace buffers
			mus, vars := model.PredictBatch(tests, &ws)
			for i, x := range tests {
				mu, v := model.Predict(x)
				if math.Abs(mu-mus[i]) > 1e-10 || math.Abs(v-vars[i]) > 1e-10 {
					t.Fatalf("%s pass %d point %d: batch (%v,%v) vs loop (%v,%v)",
						name, pass, i, mus[i], vars[i], mu, v)
				}
			}
		}
	}

	// nil workspace allocates internally and must agree too.
	mus, vars := g.PredictBatch(tests[:5], nil)
	for i := range mus {
		mu, v := g.Predict(tests[i])
		if mu != mus[i] || v != vars[i] {
			t.Fatal("nil-workspace batch diverges")
		}
	}
}

// Growing and shrinking batch sizes through one workspace must not corrupt
// results (buffers are grow-only and re-sliced per call).
func TestPredictWorkspaceReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := batchTrainingSet(30, 5, rng)
	g, err := Fit(xs, ys, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	var ws PredictWorkspace
	for _, m := range []int{1, 64, 7, 128, 2} {
		tests, _ := batchTrainingSet(m, 5, rng)
		in := ws.Inputs(m, 5)
		for i := range tests {
			copy(in[i], tests[i])
		}
		mus, vars := g.PredictBatch(in, &ws)
		if len(mus) != m || len(vars) != m {
			t.Fatalf("m=%d: got %d/%d outputs", m, len(mus), len(vars))
		}
		for i := range tests {
			mu, v := g.Predict(tests[i])
			if mu != mus[i] || v != vars[i] {
				t.Fatalf("m=%d point %d: workspace reuse diverges", m, i)
			}
		}
	}
}

// sharedShapes are the batch sizes and training-set sizes the batch
// primitives are pinned on: empty and single batches, every remainder of the
// four-row solve and the four-row distance pass, one ParRange block boundary
// (577 = 72 blocks of 8 and one row), and training sets on either side of 64.
var (
	sharedBatchSizes = []int{0, 1, 3, 4, 5, 577}
	sharedTrainSizes = []int{1, 2, 63, 64, 65}
)

// TestChunkPrimitivesMatchPredictOracle: the primitives an EI round is built
// from — one Columns.Distances pass shared by the models with the same rows,
// each model's KernelMeans, and Variances over a compacted subset of the
// kernel rows — must reproduce the per-candidate Predict oracle exactly, the same
// bits and not a tolerance, for models fitted on one TrainSet, a model grown
// by appends and a model on different rows of equal count. Every variance
// stays at or under MaxVariance.
func TestChunkPrimitivesMatchPredictOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	hypers := []Hyper{
		DefaultHyper(),
		{LogLen: math.Log(0.9), LogSignal: 0.4, LogNoise: math.Log(0.03)},
		{LogLen: math.Log(0.15), LogSignal: -0.3, LogNoise: math.Log(0.3)},
	}
	for _, n := range sharedTrainSizes {
		xs, ys := batchTrainingSet(n, 7, rng)
		other, otherYs := batchTrainingSet(n, 7, rng)
		ts, err := NewTrainSet(xs, ys, 1)
		if err != nil {
			t.Fatal(err)
		}
		var models []*GP
		for _, h := range hypers[:2] {
			m, err := ts.Fit(h, nil)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, m)
		}
		grown, err := Fit(xs[:(n+1)/2], ys[:(n+1)/2], hypers[2])
		if err != nil {
			t.Fatal(err)
		}
		if err := grown.AppendBatch(xs[(n+1)/2:], ys[(n+1)/2:]); err != nil {
			t.Fatal(err)
		}
		mismatched, err := Fit(other, otherYs, hypers[0])
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, grown, mismatched, models[0])
		if !models[0].SameRows(grown) || models[0].SameRows(mismatched) {
			t.Fatalf("n=%d: SameRows misjudges the round's models", n)
		}

		for _, m := range sharedBatchSizes {
			cands, _ := batchTrainingSet(m, 7, rng)
			shared := make([]float64, m*n)
			var cols Columns
			cols.Load(models[0])
			cols.Distances(cands, shared)
			for k, g := range models {
				d2 := shared
				if !g.SameRows(models[0]) {
					var own Columns
					own.Load(g)
					d2 = make([]float64, m*n)
					own.Distances(cands, d2)
				}
				ks, mus := make([]float64, m*n), make([]float64, m)
				g.KernelMeans(d2, ks, mus)
				// Keep every third row, moved to the front, as a bounded
				// argmax compacts its survivors.
				var keep []int
				for i := 0; i < m; i += 3 {
					copy(ks[len(keep)*n:(len(keep)+1)*n], ks[i*n:(i+1)*n])
					keep = append(keep, i)
				}
				vars := make([]float64, len(keep))
				g.Variances(ks, vars)
				for i, c := range cands {
					if mu, _ := g.Predict(c); mu != mus[i] {
						t.Fatalf("n=%d m=%d model %d point %d: mean %v vs Predict %v", n, m, k, i, mus[i], mu)
					}
				}
				for s, i := range keep {
					_, v := g.Predict(cands[i])
					if v != vars[s] {
						t.Fatalf("n=%d m=%d model %d point %d: variance %v vs Predict %v", n, m, k, i, vars[s], v)
					}
					if v > g.MaxVariance() {
						t.Fatalf("n=%d m=%d model %d point %d: variance %v above MaxVariance %v", n, m, k, i, v, g.MaxVariance())
					}
				}
			}
		}
	}
}

// TestPredictMeansMatchesPredictBatch: the means-only path must return
// PredictBatch's means exactly, at every shape, through a shared workspace.
func TestPredictMeansMatchesPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws PredictWorkspace
	for _, n := range sharedTrainSizes {
		xs, ys := batchTrainingSet(n, 6, rng)
		g, err := Fit(xs, ys, DefaultHyper())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sharedBatchSizes {
			cands, _ := batchTrainingSet(m, 6, rng)
			want, _ := g.PredictBatch(cands, nil)
			got := g.PredictMeans(cands, &ws)
			if len(got) != m {
				t.Fatalf("n=%d m=%d: %d means", n, m, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d m=%d point %d: means-only %v vs batch %v", n, m, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPredictBatchSteadyStateAllocs pins the batch paths' per-call
// allocations once the workspace has grown: none — on the one processor
// AllocsPerRun measures at, the row passes are direct calls.
func TestPredictBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	xs, ys := batchTrainingSet(60, 9, rng)
	g, err := Fit(xs, ys, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := batchTrainingSet(576, 9, rng)
	var ws PredictWorkspace
	g.PredictBatch(cands, &ws) // grow the buffers
	if allocs := testing.AllocsPerRun(10, func() { g.PredictBatch(cands, &ws) }); allocs != 0 {
		t.Fatalf("PredictBatch allocates %.0f objects per call on a warm workspace; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { g.PredictMeans(cands, &ws) }); allocs != 0 {
		t.Fatalf("PredictMeans allocates %.0f objects per call on a warm workspace; want 0", allocs)
	}
}

// TestKernelMeansMatchDot: for every chunk of up to nine rows (every
// remainder of the four-row sweep) over models of 1 to 70 training rows,
// KernelMeans' cross-kernel rows are s2·math.Exp(-d/tl2) of their distances
// and its means mat.Dot(row, α)·yStd + yMean, bit for bit, under the vector
// kernel and the forced fallback, with distances that take the map's tails
// and blocks out of the vector path's range.
func TestKernelMeansMatchDot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, vec := range kernelModes(t) {
		withVecKernel(t, vec)
		for n := 1; n <= 70; n += 1 + n/8 {
			xs, ys := batchTrainingSet(n, 3, rng)
			g, err := Fit(xs, ys, Hyper{LogLen: math.Log(0.3), LogSignal: 0.2, LogNoise: math.Log(0.1)})
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m <= 9; m++ {
				d2 := make([]float64, m*n)
				for j := range d2 {
					d2[j] = rng.ExpFloat64()
					if rng.Intn(40) == 0 {
						d2[j] = []float64{math.NaN(), 1e300, 0}[rng.Intn(3)]
					}
				}
				ks, means := make([]float64, m*n), make([]float64, m)
				g.KernelMeans(d2, ks, means)
				for i := range means {
					row := ks[i*n : (i+1)*n]
					for j, d := range d2[i*n : (i+1)*n] {
						if w := g.kern.s2 * math.Exp(-d/g.kern.tl2); math.Float64bits(row[j]) != math.Float64bits(w) {
							t.Fatalf("vec=%v n=%d m=%d: kernel[%d][%d] = %v, want %v", vec, n, m, i, j, row[j], w)
						}
					}
					if w := mat.Dot(row, g.alpha)*g.yStd + g.yMean; math.Float64bits(means[i]) != math.Float64bits(w) {
						t.Fatalf("vec=%v n=%d m=%d: mean %d = %v, mat.Dot gives %v", vec, n, m, i, means[i], w)
					}
				}
			}
		}
	}
}

// BenchmarkKernelMeans maps one EI chunk, 64 candidates against a
// 60-observation model (the five-model round's shape), through the kernel
// and takes its means, on this host's kernel path.
func BenchmarkKernelMeans(b *testing.B) {
	const m, n = 64, 60
	rng := rand.New(rand.NewSource(15))
	xs, ys := batchTrainingSet(n, 9, rng)
	g, err := Fit(xs, ys, DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	d2 := make([]float64, m*n)
	for j := range d2 {
		d2[j] = rng.Float64() * 3
	}
	ks, means := make([]float64, m*n), make([]float64, m)
	b.ReportAllocs()
	for b.Loop() {
		g.KernelMeans(d2, ks, means)
	}
}

// A Workspace reserved for a session's largest set sizes its prediction
// buffers for batches of that many rows, so a model ranking its own 30 rows
// and then one ranking its own 60 (dagp's two selections in a cold session)
// predict in the buffers the first batch allocated.
func TestReservedPredictAllocatesOnce(t *testing.T) {
	xs, ys := batchTrainingSet(60, 9, rand.New(rand.NewSource(5)))
	var ws Workspace
	ws.Reserve(len(xs))
	var first []*float64
	for _, n := range []int{30, 60} {
		ts, err := ws.TrainSet(xs[:n], ys[:n], 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ws.Fit(ts, 0, DefaultHyper())
		if err != nil {
			t.Fatal(err)
		}
		in := ws.Predict.Inputs(n, len(xs[0]))
		for i := range in {
			copy(in[i], xs[i])
		}
		g.PredictMeans(in, &ws.Predict)
		p := &ws.Predict
		arrays := []*float64{&p.ks[:1][0], &p.mean[:1][0], &p.inFlat[:1][0], &p.cols.x[:1][0]}
		if first == nil {
			first = arrays
		} else if !slices.Equal(arrays, first) {
			t.Fatalf("the %d-row batch reallocated the workspace's buffers", n)
		}
	}
}
