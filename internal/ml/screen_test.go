package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// screenModel is screenLanes in Go, operation for operation: q̃ for every
// position, −Inf where the two words share a rank, and the first block of
// four holding a position with NOT(q̃ ≤ lim).
func screenModel(ls []float64, w []uint64, il, ir []float64, sum, lim float64) int {
	for j := 0; j < len(ls); j += 4 {
		for k := j; k < min(j+4, len(ls)); k++ {
			if q := modelQ(ls[k], w[k], w[k+1], il[k], ir[k], sum); !(q <= lim) {
				return j
			}
		}
	}
	return len(ls)
}

// modelQ is one lane of screenLanes: every product rounded on its own.
func modelQ(ls float64, w, next uint64, il, ir, sum float64) float64 {
	if (w^next)>>32 == 0 {
		return math.Inf(-1)
	}
	rs := sum - ls
	return float64(float64(ls*ls)*il) + float64(float64(rs*rs)*ir)
}

// screenWindow is one feature's window of a node as grow hands it to screen:
// the positions [first, end) of cnt rows, sliced as grow slices them.
type screenWindow struct {
	ls, il, ir  []float64
	w           []uint64
	sum, parent float64
	cnt, first  int
}

// newScreenWindow lays out the window of residuals y, in the feature's
// order, whose row k+1 ties with row k where bit k of ties is set.
func newScreenWindow(y []float64, ties uint64, minLeaf int) screenWindow {
	cnt := len(y)
	w := make([]uint64, cnt)
	ls := make([]float64, cnt)
	var sum float64
	for k, v := range y {
		rank := uint64(k)
		if k > 0 && ties>>(k-1)&1 == 1 {
			rank = w[k-1] >> 32
		}
		w[k] = rank<<32 | uint64(k)
		sum += v
		ls[k] = sum
	}
	il, ir := make([]float64, cnt), make([]float64, cnt)
	for k := range il {
		il[k], ir[k] = 1/float64(k+1), 1/float64(cnt-1-k)
	}
	first, end := minLeaf-1, cnt-minLeaf
	return screenWindow{
		ls: ls[first:end], il: il[first:end], ir: ir[first:end], w: w[first : end+1],
		sum: sum, parent: sum * sum / float64(cnt), cnt: cnt, first: first,
	}
}

// gain is replay's expression at position j of the screened positions, and
// whether that position may split at all.
func (s screenWindow) gain(j int) (float64, bool) {
	k := s.first + j
	lsum := s.ls[j]
	rsum := s.sum - lsum
	return lsum*lsum/float64(k+1) + rsum*rsum/float64(s.cnt-k-1) - s.parent, (s.w[j]^s.w[j+1])>>32 != 0
}

// nudge moves x by i units in the last place.
func nudge(x float64, i int) float64 {
	for ; i > 0; i-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; i < 0; i++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// checkScreen holds screen on the window of residuals y (see
// newScreenWindow) to screenModel, at bounds within a few ulps of every
// position's q̃, and checks the margin: at best gains within a few ulps of
// every position's gain, no position in a block screen passes over has a
// gain above best+1e-12. It reports the first failure.
func checkScreen(t testing.TB, y []float64, ties uint64, minLeaf int) {
	t.Helper()
	s := newScreenWindow(y, ties, minLeaf)
	m := len(s.ls)
	run := func(j int, lim float64) int {
		return j + screen(s.ls[j:], s.w[j:], s.il[j:], s.ir[j:], s.sum, lim)
	}
	lims := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64}
	bests := []float64{0, math.Inf(1)}
	for j := range m {
		q := modelQ(s.ls[j], s.w[j], s.w[j+1], s.il[j], s.ir[j], s.sum)
		g, _ := s.gain(j)
		for i := -3; i <= 3; i++ {
			lims = append(lims, nudge(q, i))
			for _, base := range []float64{g - 1e-12, (q - s.parent) - 1e-12, g} {
				if b := nudge(base, i); b >= 0 {
					bests = append(bests, b)
				}
			}
		}
	}
	for _, best := range bests {
		lims = append(lims, splitLimit(best, s.parent))
	}
	for _, lim := range lims {
		for j := 0; j < m; j += 4 {
			if got, want := run(j, lim), j+screenModel(s.ls[j:], s.w[j:], s.il[j:], s.ir[j:], s.sum, lim); got != want {
				t.Fatalf("y=%v ties=%#x minLeaf=%d lim=%g from %d: screen flags block %d, model %d", y, ties, minLeaf, lim, j, got, want)
			}
		}
	}
	for _, best := range bests {
		lim := splitLimit(best, s.parent)
		for j := 0; j < m; j += 4 {
			next := run(j, lim)
			for k := j; k < next; k++ {
				if g, ok := s.gain(k); ok && g > best+1e-12 {
					t.Fatalf("y=%v ties=%#x minLeaf=%d best=%g: position %d gains %g but its block passed the screen", y, ties, minLeaf, best, k, g)
				}
			}
			j = next
		}
	}
}

// residualKinds draws the residuals the bound has to hold over: ordinary,
// ~1e300 (squares overflow), ~1e154 (squares near MaxFloat64), ~1e-160
// (squares subnormal), subnormal, and now and then a NaN or ±Inf.
func residualKinds(rng *rand.Rand, n int) []float64 {
	scale := []float64{1, 1e300, 1e154, 1e-160, 5e-324, 1e-6}[rng.Intn(6)]
	y := make([]float64, n)
	for i := range y {
		y[i] = scale * rng.NormFloat64()
		if scale == 5e-324 {
			y[i] = scale * float64(rng.Intn(9)-4)
		}
		if rng.Intn(40) == 0 {
			y[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	return y
}

// TestScreenBound: windows of 1–9 screened positions at minLeaf 1–5, so
// every tail length and block count, tie-heavy and tie-free words, residuals
// of every residualKinds scale. The kernel must equal screenModel bit for
// bit at bounds a few ulps from q̃ (an FMA, a dropped tie blend or an
// ordered compare shows there), and no block it passes may hold a gain
// above best+1e-12 at bests a few ulps from a gain (a margin of 0 shows
// there).
func TestScreenBound(t *testing.T) {
	if screen == nil {
		t.Skip("no lane screen on this host")
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 600; trial++ {
		for m := 1; m <= 9; m++ {
			minLeaf := 1 + trial%5
			ties := rng.Uint64() & rng.Uint64()
			checkScreen(t, residualKinds(rng, m+2*minLeaf-1), ties, minLeaf)
		}
	}
}

// FuzzSplitBound runs checkScreen on a window decoded from the input: byte
// 0 picks minLeaf (1–5), byte 1 the screened positions (1–9), bytes 2–9 the
// tie bits, and each following 8 bytes one residual's bits (zero past the
// end of the input).
func FuzzSplitBound(f *testing.F) {
	if screen == nil {
		f.Skip("no lane screen on this host")
	}
	rng := rand.New(rand.NewSource(49))
	for range 8 {
		seed := []byte{byte(rng.Intn(5)), byte(rng.Intn(9)), 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(seed[2:], rng.Uint64())
		for _, v := range residualKinds(rng, 17) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		minLeaf := 1 + int(data[0])%5
		y := make([]float64, 1+int(data[1])%9+2*minLeaf-1)
		rest := data[10:]
		for i := range y {
			if len(rest) >= 8 {
				y[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				rest = rest[8:]
			}
		}
		checkScreen(t, y, binary.LittleEndian.Uint64(data[2:]), minLeaf)
	})
}
