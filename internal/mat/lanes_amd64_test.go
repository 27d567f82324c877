package mat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestLanesGate: the factorization and the forward solve run on the lane
// kernels exactly where HasAVX2FMA holds.
func TestLanesGate(t *testing.T) {
	on := func(f, lanes any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(lanes).Pointer() }
	if on(factor, factorLanes) != HasAVX2FMA() || on(solveLower, solveLowerLanes) != HasAVX2FMA() {
		t.Fatalf("factor lanes on: %v, solve lanes on: %v, HasAVX2FMA: %v",
			on(factor, factorLanes), on(solveLower, solveLowerLanes), HasAVX2FMA())
	}
}

// checkLanes factors a on the lane kernel and on the Go path and requires
// the same failing pivot, the same factor rows before it, and, for a factor
// that exists, the same forward solves of the rows of rhs — SolveLowerBatch
// over all of them and SolveLowerVecInto of each alone, on either path, all
// equal to the textbook dot form — and the same SolveVecInto of its first
// row, all bit for bit. The factor is held in
// storage of stride n+3, so neither path may stray past a row's n columns.
func checkLanes(t *testing.T, a *Dense, rhs []float64) {
	t.Helper()
	n, _ := a.Dims()
	st := n + 3
	fill := func() *Dense {
		u := NewDense(n, st, nil)
		for i := range u.data {
			u.data[i] = math.NaN() // must never be read
		}
		for i := 0; i < n; i++ {
			copy(u.RowView(i)[:n], a.RowView(i))
		}
		return u
	}
	vec, port := fill(), fill()
	pv, pp := factorLanes(vec.data, st, n), factorGo(port.data, st, n)
	if pv != pp {
		t.Fatalf("n=%d: lane kernel fails at pivot %d, Go path at %d", n, pv, pp)
	}
	rows := n
	if pv >= 0 {
		rows = pv
	}
	for i := 0; i < rows; i++ {
		for j := i; j < st; j++ {
			if g, w := math.Float64bits(vec.At(i, j)), math.Float64bits(port.At(i, j)); g != w {
				t.Fatalf("n=%d: U[%d][%d] = %v (%#x) on the lane kernel, %v (%#x) on the Go path", n, i, j, vec.At(i, j), g, port.At(i, j), w)
			}
		}
	}
	if pv >= 0 {
		return
	}
	cv, cp := &Cholesky{u: vec}, &Cholesky{u: port}
	bv, bp := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
	onPath(solveLowerLanes, func() { cv.SolveLowerBatch(bv) })
	onPath(solveLowerGo, func() { cp.SolveLowerBatch(bp) })
	ov, op := make([]float64, n), make([]float64, n)
	for m := 0; m < len(rhs); m += n {
		onPath(solveLowerLanes, func() { cv.SolveLowerVecInto(rhs[m:m+n], ov) })
		onPath(solveLowerGo, func() { cp.SolveLowerVecInto(rhs[m:m+n], op) })
		dot := solveLowerDot(cp, rhs[m:m+n])
		for i, w := range dot {
			for _, g := range []float64{bv[m+i], bp[m+i], ov[i], op[i]} {
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d: row %d col %d: batch %v / %v and one-row %v / %v (lane kernel / Go path), dot form %v",
						n, m/n, i, bv[m+i], bp[m+i], ov[i], op[i], w)
				}
			}
		}
	}
	xv, xp := cv.SolveVecInto(rhs[:n], make([]float64, n)), cp.SolveVecInto(rhs[:n], make([]float64, n))
	for i := range xv {
		if math.Float64bits(xv[i]) != math.Float64bits(xp[i]) {
			t.Fatalf("n=%d: SolveVecInto entry %d: %v on the lane factor, %v on the Go one", n, i, xv[i], xp[i])
		}
	}
}

// TestCholeskyLanesMatchPortable: at every n up to 140 — every remainder of
// the lane kernel's 16/4/1 column blocks and of the Go path's row pairs — the
// two give the same factor and solves bit for bit, for well-conditioned Gram
// matrices and for ones whose pivot fails (a duplicated point without
// jitter, a negative jitter).
func TestCholeskyLanesMatchPortable(t *testing.T) {
	if !HasAVX2FMA() {
		t.Skip("no lane kernel on this host")
	}
	rng := rand.New(rand.NewSource(71))
	for n := 1; n <= 140; n++ {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		rhs := make([]float64, 7*n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		for _, c := range []struct{ ell, jitter float64 }{{0.4, 1e-8}, {0.2, 1e-2}, {1.5, 1e-6}, {0.4, -0.5}} {
			checkLanes(t, seGram(pts, c.ell, c.jitter), rhs)
		}
		if n > 1 {
			pts[n-1] = pts[n/2]
			checkLanes(t, seGram(pts, 0.4, 0), rhs)
		}
	}
}

// onPath runs f with solve as the forward solve.
func onPath(solve func(u []float64, st, n int, b []float64), f func()) {
	old := solveLower
	solveLower = solve
	defer func() { solveLower = old }()
	f()
}

// FuzzCholeskyLanes: the table test's property over fuzzed points (three
// coordinates a point, from three bytes; n ≤ 96), length-scale, jitter and
// 1–37 right-hand sides.
func FuzzCholeskyLanes(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 0.4, 1e-8, uint8(5))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 255, 255}, 0.1, 0.0, uint8(1))
	f.Add(make([]byte, 288), 2.0, -1e-3, uint8(36))
	f.Fuzz(func(t *testing.T, coords []byte, ell, jitter float64, m uint8) {
		if !HasAVX2FMA() {
			t.Skip("no lane kernel on this host")
		}
		n := min(len(coords)/3, 96)
		if n == 0 || !(ell > 1e-3 && ell < 1e3) || !(math.Abs(jitter) < 1e3) {
			t.Skip()
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(coords[3*i]) / 255, float64(coords[3*i+1]) / 255, float64(coords[3*i+2]) / 255}
		}
		rhs := make([]float64, (1+int(m)%37)*n)
		for i := range rhs {
			rhs[i] = math.Sin(float64(i) + jitter)
		}
		checkLanes(t, seGram(pts, ell, jitter), rhs)
	})
}
