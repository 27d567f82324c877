package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"locat/internal/sparksim"
	"locat/internal/stat"
	"locat/internal/workloads"
)

// refGBRT is the reference the production tree builder is held to: the
// per-node-sort GBRT this package shipped before the presorted builder, with
// the one change that its comparator breaks value ties by row index (the
// order the production builder defines).
type refGBRT struct {
	opts  GBRTOptions
	base  float64
	trees []*refTree
	gains []float64
	// tiesUnordered drops the row-index tie-break, leaving tied rows where
	// the unstable sort puts them. Only the mutation check sets it.
	tiesUnordered bool
}

func (g *refGBRT) fit(x [][]float64, y []float64) {
	g.gains = make([]float64, len(x[0]))
	g.base = stat.Mean(y)
	resid := make([]float64, len(y))
	for i := range y {
		resid[i] = y[i] - g.base
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < g.opts.Trees; t++ {
		tr := g.buildTree(x, resid, idx, g.opts.MaxDepth)
		if tr == nil {
			break
		}
		g.trees = append(g.trees, tr)
		for i := range resid {
			resid[i] -= gbrtLearningRate * tr.predict(x[i])
		}
	}
}

func (g *refGBRT) predict(x []float64) float64 {
	out := g.base
	for _, tr := range g.trees {
		out += gbrtLearningRate * tr.predict(x)
	}
	return out
}

type refTree struct {
	feature     int
	threshold   float64
	left, right *refTree
	value       float64
	leaf        bool
}

func (t *refTree) predict(x []float64) float64 {
	for !t.leaf {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

// less orders rows a and b by (feature f, row index).
func (g *refGBRT) less(x [][]float64, f, a, b int) bool {
	if x[a][f] != x[b][f] || g.tiesUnordered {
		return x[a][f] < x[b][f]
	}
	return a < b
}

func (g *refGBRT) buildTree(x [][]float64, y []float64, idx []int, depth int) *refTree {
	minLeaf, gains := g.opts.MinLeaf, g.gains
	if len(idx) == 0 {
		return nil
	}
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	mean := sum / float64(len(idx))
	if depth == 0 || len(idx) < 2*minLeaf {
		return &refTree{leaf: true, value: mean}
	}

	bestGain := 0.0
	bestFeat, bestIdx := -1, -1
	var order []int
	bestOrder := make([]int, len(idx))
	d := len(x[0])

	order = append(order[:0], idx...)
	for f := 0; f < d; f++ {
		fc := f
		sort.Slice(order, func(a, b int) bool { return g.less(x, fc, order[a], order[b]) })
		// Prefix sums for O(n) split scan.
		var lsum float64
		var lcnt int
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lsum += y[i]
			lcnt++
			if lcnt < minLeaf || len(order)-lcnt < minLeaf {
				continue
			}
			if x[order[k]][f] == x[order[k+1]][f] {
				continue // cannot split between equal values
			}
			rsum := sum - lsum
			rcnt := len(order) - lcnt
			gain := lsum*lsum/float64(lcnt) + rsum*rsum/float64(rcnt) - sum*sum/float64(len(order))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestIdx = k
				copy(bestOrder, order)
			}
		}
	}
	if bestFeat < 0 {
		return &refTree{leaf: true, value: mean}
	}
	gains[bestFeat] += bestGain

	thr := (x[bestOrder[bestIdx]][bestFeat] + x[bestOrder[bestIdx+1]][bestFeat]) / 2
	left := append([]int(nil), bestOrder[:bestIdx+1]...)
	right := append([]int(nil), bestOrder[bestIdx+1:]...)
	lt := g.buildTree(x, y, left, depth-1)
	rt := g.buildTree(x, y, right, depth-1)
	if lt == nil || rt == nil {
		return &refTree{leaf: true, value: mean}
	}
	return &refTree{feature: bestFeat, threshold: thr, left: lt, right: rt}
}

// tieHeavy draws n rows of d features cycling through boolean, 3-level,
// 10-level and continuous columns (the mix of a Spark configuration), and a
// target that depends on several of them.
func tieHeavy(n, d int, rng *rand.Rand) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			switch j % 4 {
			case 0:
				row[j] = float64(rng.Intn(2))
			case 1:
				row[j] = float64(rng.Intn(3)) / 2
			case 2:
				row[j] = float64(rng.Intn(10)) / 9
			default:
				row[j] = rng.Float64()
			}
		}
		t := 3*row[0] + row[d/2]*row[d-1] + 0.1*rng.NormFloat64()
		x = append(x, row)
		y = append(y, t)
	}
	return x, y
}

// mismatch fits the reference and g on (x, y) and returns the first
// difference between them, under ==, in the predictions on the training rows
// and the rows of probe or in the feature importances; "" when there is none.
func mismatch(g *GBRT, ref *refGBRT, x [][]float64, y []float64, probe [][]float64) string {
	ref.fit(x, y)
	if err := g.Fit(x, y); err != nil {
		return err.Error()
	}
	for i, row := range append(append([][]float64(nil), x...), probe...) {
		if got, want := g.Predict(row), ref.predict(row); got != want {
			return fmt.Sprintf("Predict(row %d) = %v, reference %v", i, got, want)
		}
	}
	want := (&GBRT{gains: ref.gains}).FeatureImportance()
	for f, got := range g.FeatureImportance() {
		if got != want[f] {
			return fmt.Sprintf("FeatureImportance[%d] = %v, reference %v", f, got, want[f])
		}
	}
	return ""
}

// exactnessCases calls check on every shape the issue names plus the
// degenerate inputs, stopping at the first mismatch it reports.
func exactnessCases(check func(name string, g *GBRT, x [][]float64, y []float64, probe [][]float64) bool) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 3, 4, 20, 150, 220} {
		for _, d := range []int{1, 2, 39} {
			for _, minLeaf := range []int{1, 2, 5} {
				for _, depth := range []int{1, 3, 4} {
					x, y := tieHeavy(n, d, rng)
					probe, _ := tieHeavy(25, d, rng)
					g := NewGBRT(GBRTOptions{Trees: 12, MaxDepth: depth, MinLeaf: minLeaf})
					name := fmt.Sprintf("n=%d d=%d minLeaf=%d depth=%d", n, d, minLeaf, depth)
					if !check(name, g, x, y, probe) {
						return
					}
				}
			}
		}
	}

	x, y := tieHeavy(60, 6, rng)
	probe, _ := tieHeavy(25, 6, rng)
	for i := range x {
		x[i][3] = 0.5
	}
	if !check("constant column", NewGBRT(GBRTOptions{Trees: 20, MaxDepth: 4}), x, y, probe) {
		return
	}
	x, y = tieHeavy(40, 5, rng)
	for i := 0; i < 40; i++ { // every row three times, targets differing
		x = append(x, x[i], x[i])
		y = append(y, y[i]+rng.NormFloat64(), y[i]-1)
	}
	if !check("duplicated rows", NewGBRT(GBRTOptions{Trees: 20, MaxDepth: 4, MinLeaf: 1}), x, y, probe[:0]) {
		return
	}
	x, y = tieHeavy(30, 4, rng)
	for i := range y {
		y[i] = 7
	}
	check("constant target", NewGBRT(GBRTOptions{Trees: 5}), x, y, nil)
}

// scanPaths returns the split scans a test can run under: "go", the exact
// candidate loop alone, everywhere, and "lanes", the screen kernel before it,
// where the start-up gate set screen.
func scanPaths(t testing.TB) []string {
	if screen == nil {
		t.Log("lane screen off on this host; checking the Go path only")
		return []string{"go"}
	}
	return []string{"lanes", "go"}
}

// withScanPath runs the rest of the test on the named scan path.
func withScanPath(t testing.TB, path string) {
	old := screen
	if path == "go" {
		screen = nil
	}
	t.Cleanup(func() { screen = old })
}

// onScanPaths runs test once per scan path, as a subtest named after it.
func onScanPaths(t *testing.T, test func(t *testing.T)) {
	for _, path := range scanPaths(t) {
		t.Run(path, func(t *testing.T) {
			withScanPath(t, path)
			test(t)
		})
	}
}

func TestGBRTMatchesPerNodeSortReference(t *testing.T) {
	onScanPaths(t, func(t *testing.T) {
		exactnessCases(func(name string, g *GBRT, x [][]float64, y []float64, probe [][]float64) bool {
			if m := mismatch(g, &refGBRT{opts: g.opts}, x, y, probe); m != "" {
				t.Errorf("%s: %s", name, m)
			}
			return true
		})
	})
}

// A second Fit on the same model must equal a first Fit on a fresh one:
// nothing of the first fit's trees, gains or builder survives.
func TestGBRTRefitLeaksNoState(t *testing.T) {
	onScanPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		g := NewGBRT(GBRTOptions{Trees: 25, MaxDepth: 4})
		x1, y1 := tieHeavy(150, 39, rng)
		if err := g.Fit(x1, y1); err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][2]int{{40, 7}, {150, 39}, {220, 2}} {
			x, y := tieHeavy(shape[0], shape[1], rng)
			probe, _ := tieHeavy(25, shape[1], rng)
			if m := mismatch(g, &refGBRT{opts: g.opts}, x, y, probe); m != "" {
				t.Fatalf("refit at n=%d d=%d: %s", shape[0], shape[1], m)
			}
		}
	})
}

// The suite must notice a builder whose tie order differs from the
// reference's: with the reference's row-index tie-break dropped, its unstable
// sort leaves tied rows in another order and some case has to disagree.
func TestGBRTExactnessSuiteSeesTieOrder(t *testing.T) {
	onScanPaths(t, func(t *testing.T) {
		seen := false
		exactnessCases(func(_ string, g *GBRT, x [][]float64, y []float64, probe [][]float64) bool {
			seen = mismatch(g, &refGBRT{opts: g.opts, tiesUnordered: true}, x, y, probe) != ""
			return !seen
		})
		if !seen {
			t.Fatal("no case distinguishes tie orders: the exactness suite has no ties that matter")
		}
	})
}

// Two rows share a rank exactly when their values are equal (==), ±0 alike
// and every NaN apart, also where a NaN leaves the sort's order partial and
// equal values lie apart in it: [1, NaN, 1] stays in row order.
func TestGBRTRanksNameValues(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cols := [][]float64{{1, nan, 1}, {0, negZero, nan, 0, nan}}
	for range 200 {
		col := make([]float64, 1+rng.Intn(40))
		for i := range col {
			col[i] = []float64{nan, 0, negZero, 1, 2, rng.Float64()}[rng.Intn(6)]
		}
		cols = append(cols, col)
	}
	for _, col := range cols {
		x := make([][]float64, len(col))
		for i, v := range col {
			x[i] = []float64{v}
		}
		b := newTreeBuilder(x, make([]float64, len(col)), 1, nil)
		for _, p := range b.presort {
			for _, q := range b.presort {
				a, c := col[uint32(p)], col[uint32(q)]
				if p != q && (p>>32 == q>>32) != (a == c) {
					t.Fatalf("column %v: rows %d (%v) and %d (%v) have ranks %d and %d", col, uint32(p), a, uint32(q), c, p>>32, q>>32)
				}
			}
		}
	}
}

// A fit allocates its builder and one node slice per tree, nothing per node
// (the per-node-sort builder made 121 526 allocations at this shape).
func TestGBRTFitAllocations(t *testing.T) {
	x, y := tieHeavy(150, 39, rand.New(rand.NewSource(15)))
	g := NewGBRT(GBRTOptions{Trees: 150, MaxDepth: 4})
	allocs := testing.AllocsPerRun(3, func() {
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(g.opts.Trees + 20); allocs > limit {
		t.Fatalf("Fit made %v allocations, want at most %v", allocs, limit)
	}
	t.Logf("%v allocations per fit", allocs)
}

// BenchmarkGBRTFit measures DAC's model fit: 150 boosted depth-4 trees over
// 150 random TPC-DS samples, each row the 38 encoded parameters plus the data
// size (which takes three values, as DAC's training sizes do), on the lane
// screen and on the Go candidate loop.
func BenchmarkGBRTFit(b *testing.B) {
	cl := sparksim.X86()
	sim := sparksim.New(cl, 5)
	space := cl.Space()
	app := workloads.TPCDS()
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 150)
	ys := make([]float64, len(xs))
	for i := range xs {
		c := space.Random(rng)
		gb := 150 * float64(1+i%3)
		xs[i] = append(space.Encode(c), gb/1024)
		ys[i] = sim.RunApp(app, c, gb).Sec
	}
	for _, path := range scanPaths(b) {
		b.Run(path, func(b *testing.B) {
			withScanPath(b, path)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewGBRT(GBRTOptions{Trees: 150, MaxDepth: 4}).Fit(xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
