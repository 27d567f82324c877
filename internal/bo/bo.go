// Package bo implements the Bayesian-optimization loop LOCAT and its
// GP-based baselines run: Latin-Hypercube warm start, an Expected
// Improvement acquisition with MCMC hyperparameter marginalization (EI-MCMC,
// Snoek et al. 2012), and the CherryPick-style stop condition the paper
// adopts (at least MinIter iterations and EI below a fraction of the
// current best; Section 3.4, "Stop condition").
//
// The optimizer works on the unit cube [0,1]^Dim; callers map points to
// configurations (conf.Space / conf.Subspace handle that). An optional
// context vector can be appended to every model input — LOCAT's DAGP passes
// the input data size this way, so observations taken at different data
// sizes share one surrogate (Section 3.4).
//
// # An EI round
//
// A round proposes the next point: the candidate of a pool (Candidates
// stratified points, plus 64 around the incumbent) with the largest EI
// averaged over the round's posterior-sample models. Only that argmax and its
// EI leave the round, so it solves only the candidates that can win. It runs
// candidate-major in chunks of 64, the incumbent's neighbourhood first, where
// the EI is likeliest to be high. Per chunk:
//
//   - one distance pass to the training rows (gp.Columns, loaded once per
//     round), shared by every model that holds the same rows (gp.GP.SameRows;
//     a model on other rows measures its own), then each model's kernel rows
//     and exact means (gp.GP.KernelMeans);
//   - each candidate's bound, Σ_m EI(μ_m, maxVar_m)/M, where maxVar_m is the
//     model's prior variance in output units (gp.GP.MaxVariance);
//   - a candidate is dropped iff bound + boundSlack < the best exact EI so
//     far; the survivors' kernel rows move together and are solved four at a
//     time (gp.GP.Variances), and their exact EIs are summed in model order.
//
// The kernel and solve passes are row-parallel, with a direct call at one
// processor.
//
// Why nothing that can win is dropped. A posterior variance is σ_f² less a
// sum of squares, floored at 1e-12 and scaled by yStd²; each step is monotone
// in floating point, so the computed variance never exceeds maxVar. EI is
// nondecreasing in the variance (∂EI/∂σ = φ(z) ≥ 0), but computed EI is not
// exactly so: for z ≪ 0 the two terms of (best-μ)Φ(z) + σφ(z) cancel and
// rounding errors grow as ε·z⁴, about 4e-10 relative where φ(z) is last a
// normal number (z ≈ -37.6); beyond that φ(z) is subnormal and the error is
// absolute, a few units of 2⁻¹⁰⁷⁴ times ≈ 40σ. boundSlack covers both,
// 1e-9·|bound| + 1e-300·σ_max. Floating-point addition and the division by M
// are monotone in every term, so the per-model inequalities carry through the
// average.
// TestExpectedImprovementMonotoneInVariance checks the property;
// TestBoundedArgmaxMatchesFullScoring checks the argmax against the full
// scoring it replaced, kept as its test oracle.
//
// Ties. The full scoring took the first strict maximum: among equal EIs the
// lowest index. Chunks are not taken in index order, so a survivor replaces
// the running best if its EI is larger, or equal with a lower index; the
// drop test is strict, so an equal EI is never dropped. A NaN never wins, and
// when every score is NaN no candidate does.
//
// # Buffers
//
// A Minimize run works in a Workspace (Options.Workspace, or its own): the
// candidate pool is drawn into its model-input rows (valid until the next
// round), each history step's model input is assembled once, a resample
// rebuilds the training set in the previous one's storage and refits the
// workspace's models in place, and an append extends each factor into its
// reserve. Minimize reserves all of it for the largest training set the run
// can reach (the history, or the trim cap plus the appends between two
// trims); core resets a session's reservation to its largest first
// (gp.Workspace.Reset), so both of its runs and its dagp fits reuse one
// storage, and keeps the workspace for the next session when Tune returns.
// What leaves the loop is a copy: Result.BestX and every History step own
// their slices, so nothing a run hands out aliases the workspace, which its
// owner may give to anyone once the run returns.
package bo

import (
	"math"
	"math/rand"
	"runtime"
	"sort"

	"locat/internal/gp"
	"locat/internal/mat"
	"locat/internal/obs"
	"locat/internal/stat"
)

// Step is one evaluated sample: decision point, optional context, observed
// objective, and the acquisition value that selected it (0 for warm-start
// points).
type Step struct {
	X   []float64
	Ctx []float64
	Y   float64
	EI  float64
}

// Problem defines the objective to minimize.
type Problem struct {
	// Dim is the decision dimensionality (unit cube).
	Dim int
	// Eval evaluates the objective at x under the given context.
	Eval func(x, ctx []float64) float64
	// Context, if non-nil, returns the context vector for iteration it
	// (0-based, counting every evaluation including warm start — injected
	// Options.Init steps count, so a run seeded with k prior observations
	// sees its first fresh evaluation at it = k). LOCAT's DAGP supplies the
	// current input data size here. The returned slice must have a fixed
	// length across iterations.
	Context func(it int) []float64
}

// Options control the optimization loop.
type Options struct {
	// InitPoints is the number of LHS warm-start evaluations (paper: 3).
	InitPoints int
	// MinIter is the minimum number of iterations before the stop condition
	// may fire (paper: 10).
	MinIter int
	// MaxIter caps total evaluations (warm start included).
	MaxIter int
	// EIStopFrac stops the loop when max EI < EIStopFrac × |best|
	// (paper: 0.10).
	EIStopFrac float64
	// MCMCSamples is the number of GP hyperparameter posterior samples
	// marginalized by EI-MCMC. 1 uses a single MAP-ish sample (plain EI).
	MCMCSamples int
	// Candidates is the size of the random candidate pool scored by EI.
	Candidates int
	// Init seeds the model with previously observed steps (warm restarts;
	// LOCAT reuses full-application observations when it switches to the
	// reduced-query application).
	Init []Step
	// Seed drives all randomness.
	Seed int64
	// MaxModelPoints caps the GP training-set size; when history exceeds
	// it, the incumbent-best half and the most recent half are kept
	// (0 = unlimited). Long-budget baselines use this to keep the cubic
	// Cholesky cost bounded. The trim is applied when hyperparameters are
	// (re)sampled, so between HyperEvery refreshes the live models may grow
	// up to HyperEvery-1 points past the cap.
	MaxModelPoints int
	// HyperEvery re-samples GP hyperparameters only every k-th iteration
	// (0 or 1 = every iteration). Between resamples the posterior samples
	// AND their fitted GPs are kept alive: each new observation is appended
	// to the live models with an O(n²) incremental Cholesky extension
	// (gp.Append) instead of the O(n³) refit a resample pays, so values
	// above 1 make the per-iteration surrogate cost quadratic.
	HyperEvery int
	// Workers bounds the goroutines used for the optimizer's internal math —
	// today that is the hyperparameter resample, which runs its MCMC chains
	// on a worker pool over one shared distance cache (gp.TrainSet). 0
	// selects GOMAXPROCS, 1 runs serially. Results are bit-identical for
	// every worker count; the knob only changes wall-clock time.
	Workers int
	// Stop, if non-nil, is polled before every evaluation; returning true
	// aborts the loop immediately (the partial Result is still valid).
	// LOCAT's tuner polls its session's halt check (core.Options.Halt) here.
	Stop func() bool
	// EvalBatch, if non-nil, evaluates a whole batch of points — LOCAT's
	// tuner fans the batch over concurrent simulated cluster slots — and is
	// used for the LHS warm-start block, whose points are independent. It
	// must return objective values for a prefix of xs in index order; a
	// short return means evaluation was cut off (Stop) after that prefix.
	// The recorded history is identical to the serial Eval loop, whatever
	// the evaluator's internal parallelism.
	EvalBatch func(xs, ctxs [][]float64) []float64
	// Workspace, if non-nil, holds the run's buffers; runs (and dagp fits)
	// that share one must not overlap. Nil runs in one of its own.
	Workspace *Workspace
	// Tracer, if non-nil, receives one span per GP hyperparameter resample
	// ("gp/hyper-resample"), recording how much wall time the surrogate
	// refits cost relative to the evaluations they steer. Nil traces nothing
	// and adds no allocations.
	Tracer obs.Tracer
}

// Result is the outcome of an optimization run.
type Result struct {
	// BestX and BestY are the incumbent decision point and objective.
	BestX []float64
	BestY float64
	// History holds every evaluation in order (including warm start and
	// any Init steps provided, which appear first).
	History []Step
	// Evals is the number of objective evaluations performed by this run
	// (excludes Init steps).
	Evals int
	// StoppedEarly reports whether the EI stop condition fired before
	// MaxIter.
	StoppedEarly bool
}

// Minimize runs Bayesian optimization on p and returns the best point found.
func Minimize(p Problem, opts Options) Result {
	if opts.InitPoints <= 0 {
		opts.InitPoints = 3
	}
	if opts.MaxIter < opts.InitPoints {
		opts.MaxIter = opts.InitPoints
	}
	if opts.Candidates <= 0 {
		opts.Candidates = 512
	}
	if opts.MCMCSamples <= 0 {
		opts.MCMCSamples = 1
	}
	ws := opts.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	rng := ws.start(opts)
	tr := obs.OrNop(opts.Tracer)

	var res Result
	res.BestY = math.Inf(1)
	res.History = append(res.History, opts.Init...)
	for _, s := range opts.Init {
		if s.Y < res.BestY {
			res.BestY = s.Y
			res.BestX = append([]float64(nil), s.X...)
		}
	}

	ctxAt := func(it int) []float64 {
		if p.Context == nil {
			return nil
		}
		return p.Context(it)
	}

	observe := func(x, ctx []float64, y, ei float64) {
		res.History = append(res.History, Step{X: x, Ctx: ctx, Y: y, EI: ei})
		res.Evals++
		if y < res.BestY {
			res.BestY = y
			res.BestX = append([]float64(nil), x...)
		}
	}
	record := func(x, ctx []float64, ei float64) {
		observe(x, ctx, p.Eval(x, ctx), ei)
	}

	stopped := func() bool { return opts.Stop != nil && opts.Stop() }

	// Context indices count every evaluation, including the injected Init
	// steps (see Problem.Context).
	ctxBase := len(opts.Init)

	// Warm start: LHS over the decision cube. The points are mutually
	// independent, so when a batch evaluator is available the whole block is
	// handed over at once (contexts depend only on the iteration index and
	// are precomputed); the index-ordered results are recorded exactly as
	// the serial loop would record them.
	lhs := stat.LatinHypercube(opts.InitPoints, p.Dim, rng)
	if opts.EvalBatch != nil {
		if m := opts.MaxIter - res.Evals; len(lhs) > m {
			lhs = lhs[:m]
		}
		if len(lhs) > 0 && !stopped() {
			ctxs := make([][]float64, len(lhs))
			for i := range lhs {
				ctxs[i] = ctxAt(ctxBase + res.Evals + i)
			}
			ys := opts.EvalBatch(lhs, ctxs)
			for i, y := range ys {
				observe(lhs[i], ctxs[i], y, 0)
			}
		}
	} else {
		for _, x := range lhs {
			if res.Evals >= opts.MaxIter || stopped() {
				break
			}
			record(x, ctxAt(ctxBase+res.Evals), 0)
		}
	}

	// BO iterations. Between hyperparameter resamples the fitted GPs stay
	// live: each fresh observation is appended incrementally (O(n²) per
	// model) instead of refitting every model from scratch (O(n³)). A
	// resample — where the training set is also re-trimmed — pays the full
	// refit, amortized over HyperEvery iterations.
	var (
		models    []*gp.GP    // live surrogates, one per usable hyper sample
		xs        [][]float64 // training inputs the live models hold
		ys        []float64   // training targets the live models hold
		modelMark int         // len(res.History) already folded into models
	)
	iterSinceSample := 0
	for res.Evals < opts.MaxIter && !stopped() {
		ws.addRows(res.History)
		if len(models) == 0 || opts.HyperEvery <= 1 || iterSinceSample >= opts.HyperEvery {
			// Hyperparameter resample. The distance cache is built once and
			// shared by every MCMC chain (each slice step is then an
			// allocation-free refit in a per-chain workspace) and by the
			// per-sample model fits that follow.
			hs := tr.Start("gp/hyper-resample")
			xs, ys = ws.trainingSet(res.History, opts.MaxModelPoints)
			iterSinceSample = 0
			models = models[:0]
			if ts, err := ws.TrainSet(xs, ys, opts.Workers); err == nil {
				for i, h := range ws.SampleHyper(ts, opts.MCMCSamples, rng, opts.Workers) {
					if m, err := ws.Fit(ts, i, h); err == nil {
						models = append(models, m)
					}
				}
			}
			modelMark = len(res.History)
			hs.End()
		} else if modelMark < len(res.History) {
			newXs := ws.rows[modelMark:len(res.History)]
			xs = append(xs, newXs...)
			for _, s := range res.History[modelMark:] {
				ys = append(ys, s.Y)
			}
			newYs := ys[len(ys)-len(newXs):]
			kept := models[:0]
			for _, m := range models {
				if err := m.AppendBatch(newXs, newYs); err == nil {
					kept = append(kept, m)
					continue
				}
				// Exact-refit fallback: the extension can fail on a
				// near-singular border; the hyper sample itself may still
				// support a direct factorization.
				if m2, err := gp.Fit(xs, ys, m.Hyper()); err == nil {
					kept = append(kept, m2)
				}
			}
			models = kept
			modelMark = len(res.History)
		}
		iterSinceSample++
		ctx := ctxAt(ctxBase + res.Evals)
		var bestCand []float64
		bestEI := math.Inf(-1)
		if len(models) > 0 {
			bestCand, bestEI = proposeEI(models, res, p.Dim, ctx, opts, rng, &ws.ei)
		}
		if bestCand == nil {
			// Model failure: fall back to random search for this step. It
			// says nothing about convergence, so the stop rule is not asked.
			bestCand, bestEI = randomPoint(p.Dim, rng), 0
		} else if res.Evals >= opts.MinIter && opts.EIStopFrac > 0 &&
			bestEI < opts.EIStopFrac*math.Abs(res.BestY) {
			// Stop condition (paper Section 3.4): at least MinIter iterations
			// and expected improvement below EIStopFrac of the incumbent.
			res.StoppedEarly = true
			break
		}
		record(bestCand, ctx, bestEI)
	}
	return res
}

// Workspace holds a Minimize run's buffers (see "Buffers" in the package
// doc). Its owner may reserve it (gp.Workspace.Reserve, or Reset for a new
// owner) for the largest training set of everything that will fit in it, and
// may reuse it for one run or dagp fit after another, never two at once.
type Workspace struct {
	gp.Workspace
	ei   eiWorkspace
	rng  *rand.Rand
	rows [][]float64 // history step i's model input: decision point, then context
	flat []float64   // backs rows
	hist int         // the run's largest history
	xs   [][]float64 // the training set of the last resample, then its appends
	ys   []float64
	idx  []int // trimHistory's
}

// start reserves ws for a run of opts and returns the run's generator,
// rand.New(rand.NewSource(opts.Seed))'s stream on a stat.Source.
func (ws *Workspace) start(opts Options) *rand.Rand {
	if ws.rng == nil {
		ws.rng = rand.New(stat.NewSource(opts.Seed))
	}
	ws.rng.Seed(opts.Seed)
	// The training set outgrows neither the history nor the cap by more than
	// the appends between two trims.
	ws.hist = len(opts.Init) + opts.MaxIter
	n := ws.hist
	if opts.MaxModelPoints > 0 {
		n = min(n, opts.MaxModelPoints+max(opts.HyperEvery-1, 0))
	}
	ws.ei.reserve(opts.MCMCSamples, ws.Reserve(n), opts.Candidates)
	ws.rows, ws.flat = ws.rows[:0], ws.flat[:0]
	return ws.rng
}

// addRows assembles the model input of every history step that has none yet.
func (ws *Workspace) addRows(hist []Step) {
	for _, s := range hist[len(ws.rows):] {
		w := len(s.X) + len(s.Ctx)
		if cap(ws.flat)-len(ws.flat) < w {
			ws.flat = make([]float64, 0, max(w*(ws.hist-len(ws.rows)), w))
		}
		at := len(ws.flat)
		ws.flat = append(append(ws.flat, s.X...), s.Ctx...)
		ws.rows = append(ws.rows, ws.flat[at:len(ws.flat):len(ws.flat)])
	}
}

// trainingSet returns the inputs and targets of the steps the trim keeps.
func (ws *Workspace) trainingSet(hist []Step, cap int) ([][]float64, []float64) {
	ws.idx = trimHistory(hist, cap, ws.idx)
	ws.xs, ws.ys = ws.xs[:0], ws.ys[:0]
	for _, i := range ws.idx {
		ws.xs, ws.ys = append(ws.xs, ws.rows[i]), append(ws.ys, hist[i].Y)
	}
	return ws.xs, ws.ys
}

// trimHistory bounds the GP training set: the indices of the best half (by
// objective) plus the most recent half of the history, ascending, in idx's
// storage; every index when the history is within the cap.
func trimHistory(hist []Step, cap int, idx []int) []int {
	idx = idx[:0]
	for i := range hist {
		idx = append(idx, i)
	}
	if cap <= 0 || len(hist) <= cap {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool { return hist[idx[a]].Y < hist[idx[b]].Y })
	keep := make([]bool, len(hist))
	for _, i := range idx[:cap/2] {
		keep[i] = true
	}
	for i, kept := len(hist)-1, cap/2; i >= 0 && kept < cap; i-- {
		if !keep[i] {
			keep[i], kept = true, kept+1
		}
	}
	idx = idx[:0]
	for i, k := range keep {
		if k {
			idx = append(idx, i)
		}
	}
	return idx
}

const refinePoints = 64 // local-refinement candidates around the incumbent, per round

// proposeEI draws a round's candidate pool and returns a copy of the
// candidate with the largest EI averaged over the hyperparameter posterior
// samples (EI-MCMC), and its EI — the one allocation of a round on a warm
// workspace. No candidate wins (nil, -Inf) when every score is NaN.
func proposeEI(models []*gp.GP, res Result, dim int, ctx []float64, opts Options, rng *rand.Rand, ws *eiWorkspace) ([]float64, float64) {
	pool := fillPool(res.BestX, dim, ctx, opts.Candidates, rng, ws)
	i, ei := ws.argmax(models, pool, len(pool)-opts.Candidates, res.BestY)
	if i < 0 {
		return nil, ei
	}
	return append([]float64(nil), pool[i][:dim]...), ei
}

// fillPool draws a round's candidates straight into the model-input rows of
// ws (decision point, then ctx), where they stay valid until the next round.
func fillPool(incumbent []float64, dim int, ctx []float64, cands int, rng *rand.Rand, ws *eiWorkspace) [][]float64 {
	n := cands
	if incumbent != nil {
		n += refinePoints
	}
	pool := ws.pool.Inputs(n, dim+len(ctx))
	// The exploration pool is stratified (Latin Hypercube) rather than iid
	// uniform: every dimension's range is covered evenly at identical cost
	// and rng discipline, so the EI argmax never misses a whole stratum the
	// way an unlucky uniform draw can.
	stat.LatinHypercubeInto(pool[:cands], dim, ws.perm, rng)
	// Local refinement around the incumbent.
	for i, x := range pool[cands:] {
		scale := 0.05
		if i%2 == 1 {
			scale = 0.15
		}
		for j, b := range incumbent {
			x[j] = clamp01(b + rng.NormFloat64()*scale)
		}
	}
	for _, x := range pool {
		copy(x[dim:], ctx)
	}
	return pool
}

// chunkRows is how many candidates an EI round bounds, then solves, at a time.
const chunkRows = 64

// eiWorkspace holds the buffers of an EI round: the candidate pool's rows,
// the stratification scratch, one chunk's distances, bounds and survivors,
// and per model the chunk's kernel rows, means and variances —
// O(models·chunkRows·n), not a whole pool's. A round allocates nothing per
// candidate or per model. Minimize reserves it with the rest of its
// Workspace. A workspace must not be shared by concurrent calls.
type eiWorkspace struct {
	pool gp.PredictWorkspace // only its Inputs rows: the candidate pool
	perm []int

	d2     []float64    // chunk×n squared distances to the first model's rows
	cols   []gp.Columns // per model, its rows feature-major: the first model's, and any with rows of its own
	flat   []float64    // backs every model's ks, means and vars
	models []eiModel    // the round's models
	sd     float64      // the largest model's √MaxVariance
	best   float64      // the incumbent's objective, which EI improves on
	ei     []float64    // the chunk's bounds, then the survivors' scores
	keep   []int        // the chunk's survivors, chunk-relative
}

// eiModel is one posterior-sample model of a round and its chunk buffers.
type eiModel struct {
	*gp.GP
	ks     []float64   // the chunk's kernel rows, then the survivors' solves
	means  []float64   // the chunk's posterior means
	vars   []float64   // the survivors' posterior variances
	maxVar float64     // MaxVariance
	cols   *gp.Columns // the rows it measures its own distances to; nil for the first model's rows
}

// reserve sizes the chunk buffers for k models of up to n training rows and
// the stratification scratch for cands candidates.
func (ws *eiWorkspace) reserve(k, n, cands int) {
	if cap(ws.d2) < chunkRows*n {
		ws.d2 = make([]float64, chunkRows*n)
	}
	if cap(ws.flat) < k*chunkRows*(n+2) {
		ws.flat = make([]float64, k*chunkRows*(n+2))
	}
	if cap(ws.keep) < chunkRows {
		ws.ei, ws.keep = make([]float64, chunkRows), make([]int, 0, chunkRows)
	}
	if len(ws.cols) < k {
		ws.cols = append(ws.cols, make([]gp.Columns, k-len(ws.cols))...)
	}
	if cap(ws.perm) < cands {
		ws.perm = make([]int, cands)
	}
	ws.perm = ws.perm[:cands]
}

// argmax returns the index of the candidate with the largest EI-MCMC score
// and that score, bit for bit the first maximum of a full scoring of xin, and
// solves only the candidates that can win (see the package doc). The last
// refine rows of xin, the incumbent's neighbourhood, are taken first.
func (ws *eiWorkspace) argmax(models []*gp.GP, xin [][]float64, refine int, best float64) (int, float64) {
	n := 0
	for _, g := range models {
		n = max(n, g.N())
	}
	ws.reserve(len(models), n, len(ws.perm))
	ws.models, ws.sd, ws.best = ws.models[:0], 0, best
	ws.cols[0].Load(models[0])
	for k, g := range models {
		buf := ws.flat[k*chunkRows*(n+2) : (k+1)*chunkRows*(n+2)]
		m := eiModel{GP: g, ks: buf[:chunkRows*n], means: buf[chunkRows*n : chunkRows*(n+1)],
			vars: buf[chunkRows*(n+1):], maxVar: g.MaxVariance()}
		if !g.SameRows(models[0]) {
			m.cols = &ws.cols[k]
			m.cols.Load(g)
		}
		ws.models = append(ws.models, m)
		ws.sd = max(ws.sd, math.Sqrt(m.maxVar))
	}
	bestI, bestEI := -1, math.Inf(-1)
	first := len(xin) - refine
	for _, span := range [2][2]int{{first, len(xin)}, {0, first}} {
		for lo := span[0]; lo < span[1]; lo += chunkRows {
			hi := min(lo+chunkRows, span[1])
			bestI, bestEI = ws.chunk(xin[lo:hi], lo, bestI, bestEI)
		}
	}
	return bestI, bestEI
}

// chunk scores the candidates rows, the pool's from index from on, against
// the running argmax (bestI, bestEI) and returns the new one.
func (ws *eiWorkspace) chunk(rows [][]float64, from, bestI int, bestEI float64) (int, float64) {
	// One processor takes the rows with a direct call: the parallel branch's
	// closure escapes to ParRange's workers, and a serial round must not allocate.
	serial := runtime.GOMAXPROCS(0) == 1
	if serial {
		ws.kernelRows(rows, 0, len(rows))
	} else {
		mat.ParRange(len(rows), 0, func(lo, hi int) { ws.kernelRows(rows, lo, hi) })
	}
	keep := ws.keep[:0]
	for i, ub := range ws.ei[:len(rows)] {
		if ub+boundSlack(ub, ws.sd) < bestEI {
			continue
		}
		for _, m := range ws.models {
			n := m.N()
			copy(m.ks[len(keep)*n:], m.ks[i*n:(i+1)*n])
		}
		keep = append(keep, i)
	}
	ws.keep = keep
	if serial {
		ws.solveRows(0, len(keep))
	} else {
		mat.ParRange(len(keep), 0, ws.solveRows)
	}
	for s, i := range keep {
		if ei := ws.ei[s]; ei > bestEI || ei == bestEI && from+i < bestI {
			bestI, bestEI = from+i, ei
		}
	}
	return bestI, bestEI
}

// kernelRows fills rows [lo,hi) of the chunk's kernel rows and means for
// every model, from one distance pass to the first model's training rows
// (and a pass of its own for a model that holds other rows), and each row's
// bound: the EI-MCMC score at every model's MaxVariance.
func (ws *eiWorkspace) kernelRows(rows [][]float64, lo, hi int) {
	n0 := ws.models[0].N()
	shared := ws.d2[lo*n0 : hi*n0]
	ws.cols[0].Distances(rows[lo:hi], shared)
	for _, m := range ws.models {
		n := m.N()
		ks, d2 := m.ks[lo*n:hi*n], shared
		if m.cols != nil {
			m.cols.Distances(rows[lo:hi], ks)
			d2 = ks
		}
		m.KernelMeans(d2, ks, m.means[lo:hi])
	}
	for i := lo; i < hi; i++ {
		var ub float64
		for _, m := range ws.models {
			ub += expectedImprovement(m.means[i], m.maxVar, ws.best)
		}
		ws.ei[i] = ub / float64(len(ws.models))
	}
}

// solveRows turns the survivors' kernel rows [lo,hi) into variances and each
// survivor's EI-MCMC score: EI summed in model order, then averaged.
func (ws *eiWorkspace) solveRows(lo, hi int) {
	for _, m := range ws.models {
		n := m.N()
		m.Variances(m.ks[lo*n:hi*n], m.vars[lo:hi])
	}
	for s := lo; s < hi; s++ {
		var ei float64
		for _, m := range ws.models {
			ei += expectedImprovement(m.means[ws.keep[s]], m.vars[s], ws.best)
		}
		ws.ei[s] = ei / float64(len(ws.models))
	}
}

// boundSlack is how far rounding can take a computed EI above the EI computed
// at a larger variance, for an EI near ub whose models' standard deviations
// are at most sd (see the package doc, "Why nothing that can win is dropped").
func boundSlack(ub, sd float64) float64 { return 1e-9*math.Abs(ub) + 1e-300*sd }

// expectedImprovement is EI(x) = (f* - μ)Φ(z) + σφ(z), z = (f* - μ)/σ, for
// minimization, from a predicted posterior mean and variance. A tiny
// negative variance — floating-point cancellation in a predictive-variance
// subtraction — must clamp to zero here: math.Sqrt would turn it into a NaN
// that skips the sigma guard below and poisons the whole EI average.
func expectedImprovement(mu, v, best float64) float64 {
	if v < 0 {
		v = 0
	}
	sigma := math.Sqrt(v)
	if sigma < 1e-12 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*stat.NormCDF(z) + sigma*stat.NormPDF(z)
}

func randomPoint(dim int, rng *rand.Rand) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
