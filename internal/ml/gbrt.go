package ml

import (
	"slices"

	"locat/internal/stat"
)

// GBRTOptions configure the gradient-boosted regression trees.
type GBRTOptions struct {
	// Trees is the boosting-round count (default 120).
	Trees int
	// MaxDepth is the per-tree depth (default 3).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int
}

// gbrtLearningRate is the boosting shrinkage.
const gbrtLearningRate = 0.1

// GBRT is gradient boosting with regression trees under squared loss.
type GBRT struct {
	opts  GBRTOptions
	base  float64
	trees []tree
	dim   int
	// gains accumulates total squared-error reduction per feature across
	// all splits — the feature-importance measure.
	gains []float64
}

// NewGBRT returns an untrained GBRT with defaults filled in.
func NewGBRT(o GBRTOptions) *GBRT {
	if o.Trees <= 0 {
		o.Trees = 120
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	return &GBRT{opts: o}
}

// Name implements Regressor.
func (g *GBRT) Name() string { return "GBRT" }

// Fit implements Regressor.
func (g *GBRT) Fit(x [][]float64, y []float64) error {
	d, err := checkXY(x, y)
	if err != nil {
		return err
	}
	g.dim = d
	g.gains = make([]float64, d)
	g.base = stat.Mean(y)
	g.trees = make([]tree, 0, g.opts.Trees)

	resid := make([]float64, len(y))
	for i := range y {
		resid[i] = y[i] - g.base
	}
	b := newTreeBuilder(x, resid, g.opts.MinLeaf, g.gains)
	for t := 0; t < g.opts.Trees; t++ {
		tr := b.build(g.opts.MaxDepth)
		g.trees = append(g.trees, tr)
		for i := range resid {
			resid[i] -= gbrtLearningRate * tr.predict(x[i])
		}
	}
	return nil
}

// Predict implements Regressor.
func (g *GBRT) Predict(x []float64) float64 {
	out := g.base
	for _, tr := range g.trees {
		out += gbrtLearningRate * tr.predict(x)
	}
	return out
}

// FeatureImportance returns per-feature importances (split-gain totals,
// normalized to sum to 1). Zero-length before Fit.
func (g *GBRT) FeatureImportance() []float64 {
	out := make([]float64, len(g.gains))
	var total float64
	for _, v := range g.gains {
		total += v
	}
	if total <= 0 {
		return out
	}
	for i, v := range g.gains {
		out[i] = v / total
	}
	return out
}

// node is one node of a regression tree.
type node struct {
	// feature is the split feature, or -1 at a leaf.
	feature int32
	// left and right are the children's positions in the tree (rows with
	// x[feature] <= threshold go left).
	left, right int32
	threshold   float64
	// value is the leaf's prediction.
	value float64
}

// tree is a binary regression tree over float features: its nodes in
// pre-order, the root first.
type tree []node

func (t tree) predict(x []float64) float64 {
	nd := &t[0]
	for nd.feature >= 0 {
		if x[nd.feature] <= nd.threshold {
			nd = &t[nd.left]
		} else {
			nd = &t[nd.right]
		}
	}
	return nd.value
}

// treeBuilder grows the trees of one Fit. The feature matrix does not change
// between boosting rounds, so each feature's rows are sorted once, by
// (value, row index), and a split partitions every feature's list of the
// node's rows stably into the children's: a node at any depth finds its rows
// in every feature's order without sorting again. A node owns the window
// [lo, hi) of each feature's list.
type treeBuilder struct {
	n, d    int       // rows, features
	cols    []float64 // column-major x: cols[f*n+i] = x[i][f]
	presort []int32   // presort[f*n:(f+1)*n] is the rows ordered by (feature f, row)
	order   []int32   // the tree in progress partitions this copy of presort
	scratch []int32   // the right child's rows during a partition
	goLeft  []uint8   // by row, 1 if the split being partitioned sends it left
	y       []float64 // the residuals the next tree fits
	minLeaf int
	gains   []float64 // split gains by feature, accumulated over all trees
	nodes   []node    // the tree in progress
}

func newTreeBuilder(x [][]float64, y []float64, minLeaf int, gains []float64) *treeBuilder {
	n, d := len(x), len(x[0])
	b := &treeBuilder{
		n:       n,
		d:       d,
		cols:    make([]float64, d*n),
		presort: make([]int32, d*n),
		order:   make([]int32, d*n),
		scratch: make([]int32, n),
		goLeft:  make([]uint8, n),
		y:       y,
		minLeaf: minLeaf,
		gains:   gains,
	}
	for f := 0; f < d; f++ {
		col := b.cols[f*n : (f+1)*n]
		rows := b.presort[f*n : (f+1)*n]
		for i := range col {
			col[i] = x[i][f]
			rows[i] = int32(i)
		}
		// The row index makes the order total: equal values are the common
		// case (boolean, categorical and integer features), and the order
		// of tied rows decides the floating-point sums below.
		slices.SortFunc(rows, func(a, b int32) int {
			switch {
			case col[a] < col[b]:
				return -1
			case col[a] > col[b]:
				return 1
			}
			return int(a - b)
		})
	}
	return b
}

// build grows one depth-limited tree on the current residuals, adding its
// split gains to gains.
func (b *treeBuilder) build(depth int) tree {
	copy(b.order, b.presort)
	b.nodes = b.nodes[:0]
	var sum float64
	for _, v := range b.y {
		sum += v
	}
	b.grow(0, b.n, depth, sum)
	return slices.Clone(b.nodes)
}

// grow appends the subtree over window [lo, hi), whose residuals sum to sum,
// and returns its root's position.
func (b *treeBuilder) grow(lo, hi, depth int, sum float64) int32 {
	n, minLeaf, y := b.n, b.minLeaf, b.y
	cnt := hi - lo
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1, value: sum / float64(cnt)})
	if depth == 0 || cnt < 2*minLeaf {
		return self
	}

	bestGain := 0.0
	bestFeat, bestIdx := -1, -1
	var bestLsum float64
	for f := 0; f < b.d; f++ {
		col := b.cols[f*n : (f+1)*n]
		order := b.order[f*n+lo : f*n+hi]
		// Prefix sums for O(n) split scan.
		var lsum float64
		var lcnt int
		for k := 0; k < len(order)-1; k++ {
			lsum += y[order[k]]
			lcnt++
			if lcnt < minLeaf || len(order)-lcnt < minLeaf {
				continue
			}
			if col[order[k]] == col[order[k+1]] {
				continue // cannot split between equal values
			}
			rsum := sum - lsum
			rcnt := len(order) - lcnt
			gain := lsum*lsum/float64(lcnt) + rsum*rsum/float64(rcnt) - sum*sum/float64(len(order))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestIdx = k
				bestLsum = lsum
			}
		}
	}
	if bestFeat < 0 {
		return self
	}
	b.gains[bestFeat] += bestGain

	col := b.cols[bestFeat*n : (bestFeat+1)*n]
	order := b.order[bestFeat*n+lo : bestFeat*n+hi]
	thr := (col[order[bestIdx]] + col[order[bestIdx+1]]) / 2
	// A child's sum runs over its rows in the split feature's order; the
	// left one is the scan's prefix sum at the split.
	var rsum float64
	for _, i := range order[bestIdx+1:] {
		rsum += y[i]
	}
	mid := lo + bestIdx + 1
	// Children that cannot split read no feature's list.
	if depth > 1 && (mid-lo >= 2*minLeaf || hi-mid >= 2*minLeaf) {
		b.partition(bestFeat, lo, mid, hi)
	}
	left := b.grow(lo, mid, depth-1, bestLsum)
	right := b.grow(mid, hi, depth-1, rsum)
	b.nodes[self] = node{feature: int32(bestFeat), threshold: thr, left: left, right: right}
	return self
}

// partition reorders window [lo, hi) of every feature's list so that the
// rows feature split has in [lo, mid) come first, each side keeping its
// (value, row) order.
func (b *treeBuilder) partition(split, lo, mid, hi int) {
	n := b.n
	for _, i := range b.order[split*n+lo : split*n+mid] {
		b.goLeft[i] = 1
	}
	for _, i := range b.order[split*n+mid : split*n+hi] {
		b.goLeft[i] = 0
	}
	for f := 0; f < b.d; f++ {
		if f == split {
			continue
		}
		order := b.order[f*n+lo : f*n+hi]
		right := b.scratch[:len(order)]
		// Each row is written to both sides and only its own side's cursor
		// moves: the side of a row is a coin flip to the branch predictor.
		// l never passes the read position, so no unread row is overwritten.
		l, r := 0, 0
		for _, i := range order {
			order[l], right[r] = i, i
			l += int(b.goLeft[i])
			r += 1 - int(b.goLeft[i])
		}
		copy(order[l:], right[:r])
	}
}
