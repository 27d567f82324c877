package ml

import (
	"math"
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
	b.all = make([]node, 0, g.opts.Trees*maxNodes(g.opts.MaxDepth, len(x), g.opts.MinLeaf))
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
	// right is the right child's position in the tree; the left child, in
	// pre-order, follows its parent. Rows with x[feature] <= v go left.
	right int32
	// v is the split's threshold, or the leaf's prediction.
	v float64
}

// tree is a binary regression tree over float features: its nodes in
// pre-order, the root first. A fit's trees are windows of one array.
type tree []node

func (t tree) predict(x []float64) float64 {
	i := int32(0)
	for t[i].feature >= 0 {
		if x[t[i].feature] <= t[i].v {
			i++
		} else {
			i = t[i].right
		}
	}
	return t[i].v
}

// maxNodes bounds the nodes of one tree over n rows: a split leaves at least
// minLeaf rows on each side, so there are at most n/minLeaf leaves (one, a
// lone root, if fewer rows), and at most 2^depth.
func maxNodes(depth, n, minLeaf int) int {
	leaves := max(1, n/minLeaf)
	if depth < 30 {
		leaves = min(leaves, 1<<depth)
	}
	return 2*leaves - 1
}

// treeBuilder grows the trees of one Fit. The feature matrix does not change
// between boosting rounds, so each feature's rows are sorted once, by
// (value, row index), and a split partitions every feature's list of the
// node's rows stably into the children's: a node at any depth finds its rows
// in every feature's order without sorting again. A node owns the window
// [lo, hi) of each feature's list.
//
// A list holds words rank<<32 | row, where rank is the position in the sorted
// list of the first row whose value equals (==) this row's: two rows share a
// rank exactly when their values are equal, so ±0 share one and a NaN has one
// of its own. Whether a split would fall between equal values is a test on
// two adjacent words, and a partition moves one word per row.
type treeBuilder struct {
	n, d    int       // rows, features
	cols    []float64 // column-major x: cols[f*n+i] = x[i][f]
	presort []uint64  // presort[f*n:(f+1)*n] is the words ordered by (feature f, row)
	order   []uint64  // the tree in progress partitions this copy of presort
	scratch []uint64  // the right child's words during a partition
	goLeft  []uint8   // by row, 1 if the split being partitioned sends it left
	ls      []float64 // ls[k]: the residuals' sum over the scanned window's first k+1 rows
	inv     []float64 // inv[j] = 1/j for 0 < j < n
	rinv    []float64 // rinv[i] = 1/(n-i)
	y       []float64 // the residuals the next tree fits
	minLeaf int
	gains   []float64 // split gains by feature, accumulated over all trees
	all     []node    // every tree's nodes so far, the fit's one array
	nodes   []node    // the tree in progress, all's free tail
}

func newTreeBuilder(x [][]float64, y []float64, minLeaf int, gains []float64) *treeBuilder {
	n, d := len(x), len(x[0])
	buf := make([]float64, (d+3)*n) // the columns, ls and the reciprocal tables
	b := &treeBuilder{
		n:       n,
		d:       d,
		cols:    buf[:d*n],
		ls:      buf[d*n : (d+1)*n],
		inv:     buf[(d+1)*n : (d+2)*n],
		rinv:    buf[(d+2)*n:],
		presort: make([]uint64, d*n),
		order:   make([]uint64, d*n),
		scratch: make([]uint64, n),
		goLeft:  make([]uint8, n),
		y:       y,
		minLeaf: minLeaf,
		gains:   gains,
	}
	for i := range b.rinv {
		b.inv[i] = 1 / float64(i)
		b.rinv[i] = 1 / float64(n-i)
	}
	for f := 0; f < d; f++ {
		col := b.cols[f*n : (f+1)*n]
		words := b.presort[f*n : (f+1)*n]
		nan := false
		for i := range col {
			col[i] = x[i][f]
			words[i] = uint64(i)
			nan = nan || col[i] != col[i]
		}
		// The row index makes the order total: equal values are the common
		// case (boolean, categorical and integer features), and the order
		// of tied rows decides the floating-point sums below.
		slices.SortFunc(words, func(a, b uint64) int {
			switch {
			case col[a] < col[b]:
				return -1
			case col[a] > col[b]:
				return 1
			}
			return int(a) - int(b)
		})
		// A NaN equals nothing and leaves the order partial, so equal values
		// need not be adjacent: then the first equal row is looked for.
		rank := 0
		for p, w := range words {
			if v := col[w]; p > 0 && v != col[uint32(words[p-1])] {
				rank = p
				for q := 0; nan && q < p; q++ {
					if col[uint32(words[q])] == v {
						rank = q
						break
					}
				}
			}
			words[p] |= uint64(rank) << 32
		}
	}
	return b
}

// build grows one depth-limited tree on the current residuals in all's free
// tail, adding its split gains to gains.
func (b *treeBuilder) build(depth int) tree {
	copy(b.order, b.presort)
	b.nodes = b.all[len(b.all):]
	var sum float64
	for _, v := range b.y {
		sum += v
	}
	b.grow(0, b.n, depth, sum)
	b.all = b.all[:len(b.all)+len(b.nodes)]
	return b.nodes[:len(b.nodes):len(b.nodes)]
}

// split is a node's best split so far: after position idx of feature feat's
// window, the left side's residuals summing to lsum.
type split struct {
	gain      float64
	feat, idx int
	lsum      float64
}

// screen is the lane kernel of gbrt_amd64.s where the host has AVX2, nil
// elsewhere. It returns the offset of the first block of four positions
// that may hold a split beating the bound lim, len(ls) if none does.
var screen func(ls []float64, w []uint64, il, ir []float64, sum, lim float64) int

// splitLimit is screen's bound for a node whose best gain so far is best and
// whose own squared sum over its count is parent: a position screen does not
// flag cannot pass replay's test (gbrt_amd64.s has the proof). The cap below
// MaxFloat64 makes an overflowing q̃ flagged.
func splitLimit(best, parent float64) float64 {
	return min(best+1e-12+parent, math.MaxFloat64) * (1 - 1e-13)
}

// grow appends the subtree over window [lo, hi), whose residuals sum to sum,
// and returns its root's position.
func (b *treeBuilder) grow(lo, hi, depth int, sum float64) int32 {
	n, minLeaf, y := b.n, b.minLeaf, b.y
	cnt := hi - lo
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1, v: sum / float64(cnt)})
	if depth == 0 || cnt < 2*minLeaf {
		return self
	}

	// The split after position k sends the window's first k+1 rows left;
	// positions [first, end) leave minLeaf rows on each side.
	first, end := minLeaf-1, cnt-minLeaf
	parent := sum * sum / float64(cnt)
	il, ir := b.inv[1:], b.rinv[n-cnt+1:] // 1/(k+1) and 1/(cnt-1-k) at k
	best := split{feat: -1}
	for f := 0; f < b.d; f++ {
		order := b.order[f*n+lo : f*n+hi]
		var lsum float64
		for k, w := range order[:end] {
			lsum += y[uint32(w)]
			b.ls[k] = lsum
		}
		if screen == nil {
			b.replay(&best, f, order, first, end, sum, parent)
			continue
		}
		lim := splitLimit(best.gain, parent)
		for k := first; k < end; k += 4 {
			k += screen(b.ls[k:end], order[k:end+1], il[k:end], ir[k:end], sum, lim)
			if k < end && b.replay(&best, f, order, k, min(k+4, end), sum, parent) {
				lim = splitLimit(best.gain, parent)
			}
		}
	}
	if best.feat < 0 {
		return self
	}
	b.gains[best.feat] += best.gain

	col := b.cols[best.feat*n : (best.feat+1)*n]
	order := b.order[best.feat*n+lo : best.feat*n+hi]
	thr := (col[uint32(order[best.idx])] + col[uint32(order[best.idx+1])]) / 2
	// A child's sum runs over its rows in the split feature's order; the
	// left one is the scan's prefix sum at the split.
	var rsum float64
	for _, w := range order[best.idx+1:] {
		rsum += y[uint32(w)]
	}
	mid := lo + best.idx + 1
	// Children that cannot split read no feature's list.
	if depth > 1 && (mid-lo >= 2*minLeaf || hi-mid >= 2*minLeaf) {
		b.partition(best.feat, lo, mid, hi)
	}
	b.grow(lo, mid, depth-1, best.lsum)
	right := b.grow(mid, hi, depth-1, rsum)
	b.nodes[self] = node{feature: int32(best.feat), right: right, v: thr}
	return self
}

// replay tests the splits after positions [k0, k1) of feature f's window
// order, whose residuals sum to sum and whose prefix sums are in ls, against
// s in position order, and reports whether s moved. Its gain is the exact
// expression every split is chosen by.
func (b *treeBuilder) replay(s *split, f int, order []uint64, k0, k1 int, sum, parent float64) bool {
	moved := false
	for k := k0; k < k1; k++ {
		if (order[k]^order[k+1])>>32 == 0 {
			continue // cannot split between equal values
		}
		lsum := b.ls[k]
		rsum := sum - lsum
		gain := lsum*lsum/float64(k+1) + rsum*rsum/float64(len(order)-k-1) - parent
		if gain > s.gain+1e-12 {
			*s, moved = split{gain, f, k, lsum}, true
		}
	}
	return moved
}

// partition reorders window [lo, hi) of every feature's list so that the
// rows feature feat has in [lo, mid) come first, each side keeping its
// (value, row) order.
func (b *treeBuilder) partition(feat, lo, mid, hi int) {
	n := b.n
	for _, w := range b.order[feat*n+lo : feat*n+mid] {
		b.goLeft[uint32(w)] = 1
	}
	for _, w := range b.order[feat*n+mid : feat*n+hi] {
		b.goLeft[uint32(w)] = 0
	}
	for f := 0; f < b.d; f++ {
		if f == feat {
			continue
		}
		order := b.order[f*n+lo : f*n+hi]
		right := b.scratch[:len(order)]
		// Each word is written to both sides and only its own side's cursor
		// moves: the side of a row is a coin flip to the branch predictor.
		// l never passes the read position, so no unread word is overwritten.
		l, r := 0, 0
		for _, w := range order {
			order[l], right[r] = w, w
			side := int(b.goLeft[uint32(w)])
			l += side
			r += 1 - side
		}
		copy(order[l:], right[:r])
	}
}
