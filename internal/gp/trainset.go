package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"locat/internal/mat"
	"locat/internal/stat"
)

// TrainSet holds everything about a fixed training set that hyperparameter
// inference can compute once and reuse across every posterior evaluation:
// the pairwise squared-distance matrix (the only input-dependent part of the
// squared-exponential kernel) and the standardized targets. With it, one
// logPosterior evaluation is an elementwise exp map over the cached
// distances (or, while the length-scale stands still, a rescale of the map
// the workspace kept) plus an in-place Cholesky refactorization in a
// caller-supplied workspace — no kernel reassembly from the raw inputs and
// no allocations —
// where the Fit-per-step path pays an O(n²·d) assembly and ~2n² fresh floats
// every slice-sampling step. The slice sampler evaluates the posterior
// hundreds of times per MCMC run, which is why this is the training-side hot
// path of the whole tuner.
//
// A TrainSet is immutable between builds (a Workspace rebuilds its set in
// place) and then safe for concurrent use; per-evaluation mutable state
// lives in FitWorkspace (one per chain).
type TrainSet struct {
	x  [][]float64
	y  []float64
	ys []float64 // standardized targets
	d2 []float64 // pairwise squared distances, n×n row-major, strict upper triangle filled (the factor is upper)

	yMean, yStd float64
	n           int
	capacity    int    // the rows its storage, and the factors fitted on it, are reserved for
	gen         uint64 // the build: FitWorkspace's correlation cache is keyed by it
}

// NewTrainSet validates the training data and precomputes the
// hyperparameter-independent state: the squared-distance matrix (assembled
// row-parallel over workers goroutines; ≤0 selects GOMAXPROCS) and the
// output standardization. The inputs are copied shallowly (rows are shared,
// never written).
func NewTrainSet(x [][]float64, y []float64, workers int) (*TrainSet, error) {
	ts := new(TrainSet)
	if err := ts.build(x, y, 0, workers); err != nil {
		return nil, err
	}
	return ts, nil
}

// build makes ts the set of x and y in its own storage, reserved for
// max(len(x), capacity) rows when it must allocate, as a new generation.
func (ts *TrainSet) build(x [][]float64, y []float64, capacity, workers int) error {
	n := len(x)
	if n == 0 || n != len(y) {
		return errors.New("gp: empty or mismatched training set")
	}
	d := len(x[0])
	for i, xi := range x {
		if len(xi) != d {
			return fmt.Errorf("gp: row %d has %d features, want %d", i, len(xi), d)
		}
	}
	c := max(n, capacity, ts.capacity)
	if cap(ts.x) < n {
		ts.x, ts.y = make([][]float64, 0, c), make([]float64, 0, c)
	}
	ts.x, ts.y = append(ts.x[:0], x...), append(ts.y[:0], y...)
	ts.d2 = growFloats(ts.d2, n*n, c*c)
	ts.ys = growFloats(ts.ys, n, c)
	ts.n, ts.capacity = n, c
	ts.gen++
	// Pairwise squared distances, each row's entries computed by one worker
	// (writes are disjoint by row, so the parallel result is deterministic).
	// Only the strict upper triangle is filled — the kernel assembly never
	// reads the diagonal (always σ_f²+σ_n²+jitter) or the lower triangle,
	// because mat.Cholesky factors the upper one — which halves the O(n²·d)
	// assembly work. sqDist is the loop Fit runs per pair, and it is
	// symmetric bit for bit (a−b is −(b−a) exactly), so the cached distances
	// — and everything derived from them — are bit-identical to the per-pair
	// recomputation they replace, in either order of the pair.
	mat.ParRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := ts.d2[i*n+i+1 : (i+1)*n]
			xi := ts.x[i]
			for j, xj := range ts.x[i+1:] {
				row[j] = sqDist(xi, xj)
			}
		}
	})
	ts.yMean = stat.Mean(ts.y)
	ts.yStd = stat.StdDev(ts.y)
	if ts.yStd < 1e-12 {
		ts.yStd = 1
	}
	for i, v := range ts.y {
		ts.ys[i] = (v - ts.yMean) / ts.yStd
	}
	return nil
}

// FitWorkspace holds the grow-only scratch buffers one posterior evaluation
// works in: the kernel/factor matrix and the forward solve z = L⁻¹y of the
// evidence. Buffers are sized on first use, for the set's capacity, and
// reused afterwards, so a whole MCMC chain runs with zero per-step
// allocations. A workspace must not be shared by concurrent LogPosterior
// calls — the multi-chain sampler gives every worker its own.
//
// The workspace also keeps the correlation matrix exp(-d²/2ℓ²) of the last
// evaluation. It depends on the training set and the length-scale only, and
// a slice-sampling update moves one coordinate: every evaluation along
// LogSignal or LogNoise — two updates in three, with all their step-out and
// shrink probes — finds the length-scale it left and rescales the cached
// matrix instead of taking n²/2 exponentials again.
type FitWorkspace struct {
	chol mat.Cholesky // its reserved storage is the kernel matrix, refactored in place each evaluation
	z    []float64    // L⁻¹y, the forward solve of the evidence
	rng  *rand.Rand   // the chain stream on a stat.Source, re-seeded in O(1) for each chain the workspace runs

	// corr is exp(-d²/2ℓ²) (n×n, strict upper triangle) of corrTS's build
	// corrGen at corrLogLen; a nil corrTS means it holds nothing. Keeping the
	// pointer keeps that set alive, so no later TrainSet can be mistaken for
	// it, and a rebuild in its storage has another generation.
	corr       []float64
	corrTS     *TrainSet
	corrGen    uint64
	corrLogLen float64
}

// seeded returns the workspace's generator at the start of the stream
// rand.New(rand.NewSource(seed)) yields; a stat.Source's Seed is O(1).
func (ws *FitWorkspace) seeded(seed int64) *rand.Rand {
	if ws.rng == nil {
		ws.rng = rand.New(stat.NewSource(seed))
	}
	ws.rng.Seed(seed)
	return ws.rng
}

// LogPosterior evaluates the unnormalized log posterior (log marginal
// likelihood of the standardized targets + log prior) of hyperparameters h
// over the cached training set, entirely inside ws: the kernel matrix, its
// factor, and one forward solve z = L⁻¹y, whose squared norm is the
// evidence's yᵀK⁻¹y (logEvidence). Returns -Inf when the
// covariance is not positive definite. workers parallelizes the elementwise
// kernel map (≤0 selects GOMAXPROCS; the factorization itself is serial);
// the result is bit-identical for every worker count, and matches the
// Fit-per-step evaluation this replaces exactly.
func (ts *TrainSet) LogPosterior(h Hyper, ws *FitWorkspace, workers int) float64 {
	n, c := ts.n, ts.capacity
	kern := ws.chol.Reserve(n, c)
	ws.corr = growFloats(ws.corr, n*n, c*c) // a regrown cache belongs to a larger set: another set or generation below
	ws.z = growFloats(ws.z, n, c)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The cached correlations are good for this build of this set at this
	// length-scale and nothing else: another TrainSet or build — of the same
	// size or not — or another LogLen takes the exponentials afresh.
	fresh := ws.corrTS != ts || ws.corrGen != ts.gen || ws.corrLogLen != h.LogLen
	ws.corrTS, ws.corrGen, ws.corrLogLen = ts, ts.gen, h.LogLen

	// The serial case maps the rows with a direct call: the parallel
	// branch's closure escapes to ParRange's workers, and the chain hot path
	// (one chain per worker, serial map) must not allocate at all.
	corr := ws.corr
	if workers == 1 {
		ts.assembleRows(kern, corr, fresh, h, 0, n)
	} else {
		mat.ParRange(n, workers, func(lo, hi int) { ts.assembleRows(kern, corr, fresh, h, lo, hi) })
	}

	if err := ws.chol.FactorInPlace(kern); err != nil {
		return math.Inf(-1)
	}
	return logEvidence(&ws.chol, ws.chol.SolveLowerVecInto(ts.ys, ws.z)) + logPrior(h)
}

// Fit builds a ready-to-use GP under hyperparameters h, assembling the
// kernel from the cached distance matrix instead of re-deriving it from the
// raw inputs; gp.Fit is this on a TrainSet of its own. The returned model is
// independent of the TrainSet's internals (safe to Append to). bo.Minimize
// uses it to materialize the per-hyper-sample models right after an MCMC
// resample, reusing the distance cache one more time.
//
// g, if non-nil, is a model the caller is done with: it is consumed — its
// factor, α and row storage back the returned model (which is g itself), on
// failure they are lost — so a resample refits in the buffers, reserve
// included, of the models it discards. The model's buffers are reserved for
// the set's capacity, so appends up to it never copy them.
func (ts *TrainSet) Fit(h Hyper, g *GP) (*GP, error) {
	if g == nil {
		g = &GP{chol: &mat.Cholesky{}}
	}
	if cap(g.x) < ts.capacity {
		g.x, g.y = make([][]float64, 0, ts.capacity), make([]float64, 0, ts.capacity)
	}
	g.x = append(g.x[:0], ts.x...)
	g.y = append(g.y[:0], ts.y...)
	g.hyp, g.kern, g.capacity = h, h.kernel(), ts.capacity
	kern := g.chol.Reserve(ts.n, ts.capacity)
	ts.assembleRows(kern, nil, true, h, 0, ts.n)
	if err := g.chol.FactorInPlace(kern); err != nil {
		return nil, fmt.Errorf("gp: covariance not PD: %w", err)
	}
	g.refreshAlpha()
	return g, nil
}

// assembleRows writes rows [lo,hi) of the kernel matrix
// K = σ_f²·exp(-d²/(2ℓ²)) + (σ_n² + jitter)·I into kern (n rows of any
// stride). The exponentials go through corr (n×n row-major): with fresh set
// they are taken from the cached distances and stored there first, otherwise
// corr already holds them for h's length-scale and the rows are only
// rescaled. A nil corr takes them in kern's own rows and scales them where
// they stand. Only the diagonal and the upper triangle are written: the
// factorization reads nothing below the diagonal.
// The exponentials are kernelRow's at σ_f² = 1 (a product with 1 is exact),
// and the product with σ_f² and the diagonal's σ_f² + (σ_n² + jitter) are
// seKernel.of's shapes, so the assembled matrix — and therefore the factor
// and the evidence — is bit-identical whether or not the exponentials were
// reused; LogPosterior and TrainSet.Fit both build on this one helper so the
// two paths cannot drift apart.
func (ts *TrainSet) assembleRows(kern *mat.Dense, corr []float64, fresh bool, h Hyper, lo, hi int) {
	n := ts.n
	k := h.kernel()
	diag := k.s2 + (h.Noise2() + 1e-8)
	for i := lo; i < hi; i++ {
		row := kern.RowView(i)[i:n]
		dst := row[1:]
		crow := dst
		if corr != nil {
			crow = corr[i*n+i+1 : (i+1)*n]
		}
		if fresh {
			kernelRow(crow, ts.d2[i*n+i+1:(i+1)*n], 1, k.tl2)
		}
		scale(dst, crow, k.s2)
		row[0] = diag
	}
}

// logEvidence returns the log evidence −½‖z‖² − ½·log|K| − n/2·log 2π of
// the standardized targets from the factor of K and z = L⁻¹y, which the
// caller solved into its own buffer: yᵀK⁻¹y is zᵀz, so no back solve for
// α = K⁻¹y is needed.
func logEvidence(chol *mat.Cholesky, z []float64) float64 {
	return -0.5*mat.Dot(z, z) - 0.5*chol.LogDet() - 0.5*float64(len(z))*log2Pi
}

// Workspace is the storage a session's surrogate fits work in (see
// "Buffers" in the package doc): the training set, rebuilt in place, the
// MCMC's fit workspace, the models refitted in place and the batch
// prediction buffers. What it hands out is valid until its next use; it must
// not be shared by concurrent calls.
type Workspace struct {
	ts      TrainSet
	fit     []FitWorkspace // SampleHyperIn's, one per worker
	models  []*GP
	rows    int
	Predict PredictWorkspace
}

// Reserve sizes the buffers, when they are next allocated, for training sets
// of at least n rows, and returns the reservation, which only grows while
// one owner holds the workspace. The prediction buffers are sized for a batch
// of as many rows against a set of as many, so ranking a set's own rows
// (dagp) allocates once however the set grows.
func (w *Workspace) Reserve(n int) int { return w.Reset(max(w.rows, n)) }

// Reset hands w to a new owner reserved for exactly n rows: the last owner's
// reservation is dropped, the storage it allocated kept for reuse. A
// workspace is reused from one owner to the next (core keeps each session's
// for the next session), so nothing an owner hands on may alias it once the
// owner lets go of it.
func (w *Workspace) Reset(n int) int {
	w.rows, w.Predict.rows = n, n
	return n
}

// TrainSet builds the set of x and y in the storage of the previous one.
func (w *Workspace) TrainSet(x [][]float64, y []float64, workers int) (*TrainSet, error) {
	if err := w.ts.build(x, y, w.rows, workers); err != nil {
		return nil, err
	}
	return &w.ts, nil
}

// SampleHyper is ts.SampleHyperIn on the workspace's fit workspace.
func (w *Workspace) SampleHyper(ts *TrainSet, n int, rng *rand.Rand, workers int) []Hyper {
	return ts.SampleHyperIn(&w.fit, n, rng, workers)
}

// Fit refits the workspace's model i on ts under h (TrainSet.Fit).
func (w *Workspace) Fit(ts *TrainSet, i int, h Hyper) (*GP, error) {
	for len(w.models) <= i {
		w.models = append(w.models, &GP{chol: &mat.Cholesky{}})
	}
	return ts.Fit(h, w.models[i])
}
