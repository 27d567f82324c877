package gp

import (
	"fmt"
	"runtime"

	"locat/internal/mat"
	"locat/internal/stat"
)

// GP is a fitted Gaussian-process regressor. Outputs are standardized
// internally (zero mean, unit variance); Predict undoes the transform.
//
// A fitted GP can be grown one observation at a time with Append (or many
// with AppendBatch): the cached Cholesky factor of the kernel matrix is
// border-extended in O(n²) instead of refactored in O(n³), which is what
// keeps the per-iteration surrogate cost of the BO loop flat as warm-start
// priors push the training set into the hundreds. The extended model matches
// a fresh Fit on the same data to rounding error (the factorization
// recurrences are identical); hyperparameter changes still require a full
// refit — callers hold hyperparameters fixed between appends (bo.Minimize
// does so between HyperEvery resamples).
type GP struct {
	x     [][]float64
	y     []float64 // raw targets, kept so Append can re-standardize exactly
	yMean float64
	yStd  float64
	hyp   Hyper
	kern  seKernel // hyp's σ_f² and 2ℓ², evaluated once at fit time
	chol  *mat.Cholesky
	alpha []float64 // (K + σ_n² I)⁻¹ · y (standardized)
	col   []float64 // AppendBatch's kernel column, reused across appends

	capacity int // the training-set size its buffers are reserved for (TrainSet.Fit)
}

// Fit trains an exact GP on inputs x (rows, all the same length) and targets
// y with hyperparameters h.
func Fit(x [][]float64, y []float64, h Hyper) (*GP, error) {
	ts, err := NewTrainSet(x, y, 1)
	if err != nil {
		return nil, err
	}
	return ts.Fit(h, nil)
}

// refreshAlpha recomputes the output standardization and α = (K+σ_n²I)⁻¹·y
// from the current factor and raw targets — an O(n²) triangular solve, run
// in place over the standardized targets in the α buffer the model keeps.
func (g *GP) refreshAlpha() {
	g.yMean = stat.Mean(g.y)
	g.yStd = stat.StdDev(g.y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.alpha = growFloats(g.alpha, len(g.y), g.reserved())
	for i, v := range g.y {
		g.alpha[i] = (v - g.yMean) / g.yStd
	}
	g.chol.SolveVecInto(g.alpha, g.alpha)
}

// Append extends the GP with one observation in O(n²) by border-extending
// the cached Cholesky factor. See AppendBatch.
func (g *GP) Append(x []float64, y float64) error {
	return g.AppendBatch([][]float64{x}, []float64{y})
}

// AppendBatch extends the GP with a batch of observations without refitting:
// each point costs one O(n²) factor extension (an O(n·d) kernel row plus the
// updatable triangular solve of mat.Cholesky.Extend), and one O(n²) α
// re-solve covers the whole batch. On error the receiver is unchanged and
// remains usable; callers then fall back to an exact refit via Fit.
func (g *GP) AppendBatch(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("gp: append %d points with %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil
	}
	d := len(g.x[0])
	for i, xi := range xs {
		if len(xi) != d {
			return fmt.Errorf("gp: append row %d has %d features, want %d", i, len(xi), d)
		}
	}
	// A batch that fails part way truncates the factor back to the model's
	// rows, which Extend never writes, so the model is left unchanged.
	x2 := g.x
	for i, xi := range xs {
		g.col = growFloats(g.col, len(x2), g.reserved())
		for j, xj := range x2 {
			g.col[j] = g.kern.of(sqDist(xj, xi))
		}
		diag := g.kern.of(0) + g.hyp.Noise2() + 1e-8
		if err := g.chol.Extend(g.col, diag); err != nil {
			g.chol.Truncate(len(g.x))
			return fmt.Errorf("gp: append point %d: %w", i, err)
		}
		x2 = append(x2, xi)
	}
	g.x = x2
	g.y = append(g.y, ys...)
	g.refreshAlpha()
	return nil
}

// Clone returns an independent copy of the GP: appending to the clone leaves
// the original untouched. Cost is O(n²) (the factor copy).
func (g *GP) Clone() *GP {
	return &GP{
		x:     append([][]float64(nil), g.x...),
		y:     append([]float64(nil), g.y...),
		yMean: g.yMean,
		yStd:  g.yStd,
		hyp:   g.hyp,
		kern:  g.kern,
		chol:  g.chol.Clone(),
		alpha: append([]float64(nil), g.alpha...),
	}
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.x) }

// Hyper returns the hyperparameters the GP was fitted with.
func (g *GP) Hyper() Hyper { return g.hyp }

// Predict returns the posterior mean and variance at x* (equation 10 of the
// paper). The variance is of the latent function (noise-free).
func (g *GP) Predict(xs []float64) (mean, variance float64) {
	n := len(g.x)
	ks := make([]float64, n)
	for i, xi := range g.x {
		ks[i] = g.kern.of(sqDist(xi, xs))
	}
	m := mat.Dot(ks, g.alpha)
	v := g.chol.SolveLowerVecInto(ks, ks)
	variance = g.kern.of(0) - mat.Dot(v, v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	// Undo output standardization.
	return m*g.yStd + g.yMean, variance * g.yStd * g.yStd
}

// PredictWorkspace holds the grow-only scratch buffers batch prediction
// works in: the cross-kernel matrix, the mean/variance outputs, and a
// reusable input-row matrix for callers that assemble model inputs per batch.
// One workspace serves any sequence of batches (buffers grow to the largest
// batch seen and are then reused; a Workspace's reservation sizes them at
// once for batches and sets of its reserved rows). A workspace must not be
// shared by concurrent calls; batch prediction parallelizes internally.
type PredictWorkspace struct {
	cols       Columns   // the model's training rows, loaded once per batch
	ks         []float64 // m×n squared distances, mapped in place to K(X*,X), then overwritten by the variance solve
	mean, vari []float64
	inFlat     []float64
	inRows     [][]float64
	rows       int // batch and set size the buffers are sized for when they grow (Workspace.Reserve)
}

// Inputs returns an m×d row matrix backed by the workspace. Callers fill it
// with model inputs (decision point + context) and pass it to PredictBatch;
// the rows stay valid until the next Inputs call.
func (w *PredictWorkspace) Inputs(m, d int) [][]float64 {
	if cap(w.inFlat) < m*d { // exact, or reserved: a caller's batches keep their shape
		w.inFlat = make([]float64, m*d, max(m, w.rows)*d)
	}
	if cap(w.inRows) < m {
		w.inRows = make([][]float64, m, max(m, w.rows))
	}
	rows := w.inRows[:m]
	for i := range rows {
		rows[i] = w.inFlat[i*d : (i+1)*d]
	}
	return rows
}

// growFloats returns buf resliced to n, reallocating with room for capacity
// values (or exactly n) when it is too small.
func growFloats(buf []float64, n, capacity int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, capacity))
	}
	return buf[:n]
}

// reserved is how many training rows g's buffers are sized for: its
// capacity, or half as much again as it holds once it appends past that.
func (g *GP) reserved() int { return max(g.capacity, len(g.x)+len(g.x)/2) }

// PredictBatch returns the posterior means and variances at every row of xs
// — identical, bit for bit, to calling Predict per row, but batched: a
// row-parallel pass measures each block of rows' squared distances to the
// training rows (Columns.Distances), maps them in place through the kernel,
// four values at a time where the vector kernel runs, and takes the means
// against α (KernelMeans), then runs the variance forward-substitutions four
// rows at a time in place over the cross-kernel rows (Variances), so no
// per-candidate scratch is ever allocated. ws supplies the reusable buffers
// (nil allocates a private workspace for the call); the returned slices
// belong to the workspace and are valid until its next use.
func (g *GP) PredictBatch(xs [][]float64, ws *PredictWorkspace) (means, vars []float64) {
	if ws == nil {
		ws = &PredictWorkspace{}
	}
	ws.vari = growFloats(ws.vari, len(xs), len(xs)+len(xs)/2)
	g.predict(xs, ws, true)
	return ws.mean, ws.vari
}

// PredictMeans returns the posterior means at every row of xs — PredictBatch
// without the variances and therefore without the forward solve per point,
// which is most of PredictBatch's cost. The means are bit-identical to
// PredictBatch's. The returned slice belongs to ws and is valid until its
// next use.
func (g *GP) PredictMeans(xs [][]float64, ws *PredictWorkspace) []float64 {
	g.predict(xs, ws, false)
	return ws.mean
}

// predict fills ws.mean, and ws.vari if vars is set, for every row of xs.
func (g *GP) predict(xs [][]float64, ws *PredictWorkspace, vars bool) {
	n, m := len(g.x), len(xs)
	ws.ks = growFloats(ws.ks, m*n, max(m, ws.rows)*max(n, ws.rows))
	ws.mean = growFloats(ws.mean, m, max(m, ws.rows))
	ws.cols.Load(g)
	// One processor takes the rows with a direct call: the parallel branch's
	// closure escapes to ParRange's workers, and a serial batch must not allocate.
	if runtime.GOMAXPROCS(0) == 1 {
		g.predictRows(xs, ws, vars, 0, m)
	} else {
		mat.ParRange(m, 0, func(lo, hi int) { g.predictRows(xs, ws, vars, lo, hi) })
	}
}

func (g *GP) predictRows(xs [][]float64, ws *PredictWorkspace, vars bool, lo, hi int) {
	n := len(g.x)
	ks := ws.ks[lo*n : hi*n]
	ws.cols.Distances(xs[lo:hi], ks)
	g.KernelMeans(ks, ks, ws.mean[lo:hi])
	if vars {
		g.Variances(ks, ws.vari[lo:hi])
	}
}

// SameRows reports whether g and h hold the same training points in the same
// order: equally many rows, each sharing its storage with its counterpart.
// That is how the models of one EI round hold them — fitted on one TrainSet
// (or refitted from bo's own row slices) and grown by the same appends — and
// rows are never written, so shared storage is equality with no need to read
// it. Models with the same rows have the same Distances, from one Load.
func (g *GP) SameRows(h *GP) bool {
	if len(g.x) != len(h.x) {
		return false
	}
	for i, ra := range g.x {
		rb := h.x[i]
		if len(ra) != len(rb) || (len(ra) > 0 && &ra[0] != &rb[0]) {
			return false
		}
	}
	return true
}

// Columns is a feature-major copy of a model's training rows, the layout
// Distances reads (see "Distances" in the package doc): feature f of row j
// at x[f*n+j]. A caller's workspace owns it, so the model stays read-only.
type Columns struct {
	x    []float64
	n, d int
}

// Load copies g's rows into c, reusing c's storage: O(n·d), once per batch
// or round, against the O(m·n·d) of the distances it feeds.
func (c *Columns) Load(g *GP) {
	c.n, c.d = len(g.x), len(g.x[0])
	c.x = growFloats(c.x, c.n*c.d, g.reserved()*c.d)
	for j, r := range g.x {
		for f, v := range r {
			c.x[f*c.n+j] = v
		}
	}
}

// Distances writes the squared distance from every row of xs to every
// loaded row into d2 (row-major, n per row), sqDist's bit for bit. No
// hyperparameter enters, so every model with the same rows (SameRows) can
// map one pass through its own kernel.
func (c *Columns) Distances(xs [][]float64, d2 []float64) {
	for _, x := range xs {
		distances(c.x, x[:c.d], d2[:c.n])
		d2 = d2[c.n:]
	}
}

// KernelMeans maps len(means) rows of squared distances (d2, as Distances
// writes them) through g's kernel into ks and writes each row's posterior
// mean into means: PredictBatch's cross-kernel rows and means, bit for bit.
// d2 and ks may be the same slice.
func (g *GP) KernelMeans(d2, ks, means []float64) {
	n, m := len(g.x), len(means)
	kernelRow(ks[:m*n], d2[:m*n], g.kern.s2, g.kern.tl2)
	alpha, yMean, yStd := g.alpha, g.yMean, g.yStd
	i := 0
	for ; i+3 < m; i += 4 {
		r := ks[i*n : (i+4)*n]
		s0, s1, s2, s3 := dot4(r[:n], r[n:2*n], r[2*n:3*n], r[3*n:], alpha)
		means[i], means[i+1] = s0*yStd+yMean, s1*yStd+yMean
		means[i+2], means[i+3] = s2*yStd+yMean, s3*yStd+yMean
	}
	for ; i < m; i++ {
		means[i] = mat.Dot(ks[i*n:(i+1)*n], alpha)*yStd + yMean
	}
}

// dot4 returns mat.Dot of each of a0…a3 with b: four independent chains,
// each adding a_r[j]·b[j] from zero in ascending j in mat.Dot's expression,
// where one chain of dependent additions waits on every add.
func dot4(a0, a1, a2, a3, b []float64) (s0, s1, s2, s3 float64) {
	a0, a1, a2, a3 = a0[:len(b)], a1[:len(b)], a2[:len(b)], a3[:len(b)]
	for j, v := range b {
		s0 += a0[j] * v
		s1 += a1[j] * v
		s2 += a2[j] * v
		s3 += a3[j] * v
	}
	return s0, s1, s2, s3
}

// Variances turns len(vars) cross-kernel rows from KernelMeans into posterior
// variances, solving v_i = L⁻¹·k*_i in place over each row of ks:
// PredictBatch's variances, bit for bit, wherever a row sits in ks — a caller
// may move rows together before the solve. No result exceeds MaxVariance.
func (g *GP) Variances(ks, vars []float64) {
	n := len(g.x)
	ks = ks[:len(vars)*n]
	g.chol.SolveLowerBatch(ks)
	self, yStd := g.kern.of(0), g.yStd // every candidate's prior variance
	for i := range vars {
		row := ks[i*n : (i+1)*n]
		v := self - mat.Dot(row, row)
		if v < 1e-12 {
			v = 1e-12
		}
		vars[i] = v * yStd * yStd
	}
}

// MaxVariance bounds every variance Variances returns, in floating point and
// not only in exact arithmetic: the prior variance σ_f², floored and scaled
// as Variances floors and scales. A variance is σ_f² less a sum of squares,
// and rounding never takes a non-negative number away from σ_f² to above it;
// the floor and the two multiplications are monotone too.
func (g *GP) MaxVariance() float64 {
	return max(g.kern.of(0), 1e-12) * g.yStd * g.yStd
}

// LogMarginalLikelihood returns the log evidence of the standardized
// training targets under the GP prior — the quantity the slice sampler
// explores, and TrainSet.LogPosterior's evidence bit for bit.
func (g *GP) LogMarginalLikelihood() float64 {
	z := make([]float64, len(g.y))
	for i, v := range g.y {
		z[i] = (v - g.yMean) / g.yStd
	}
	return logEvidence(g.chol, g.chol.SolveLowerVecInto(z, z))
}
