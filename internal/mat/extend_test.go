package mat

import (
	"math"
	"math/rand"
	"testing"
)

// oldExtend is Cholesky.Extend as it was before the factor grew in place: a
// fresh (n+1)×(n+1) matrix per point, the old rows copied across.
func oldExtend(c *Cholesky, col []float64, diag float64) (*Cholesky, error) {
	n, st := c.l.Dims()
	l21 := c.SolveLowerVecInto(col, make([]float64, n))
	d := diag - Dot(l21, l21)
	if d <= 0 || math.IsNaN(d) {
		return nil, ErrNotPositiveDefinite
	}
	nl := NewDense(n+1, n+1, nil)
	for i := 0; i < n; i++ {
		copy(nl.data[i*nl.cols:i*nl.cols+n], c.l.data[i*st:i*st+n])
	}
	copy(nl.data[n*nl.cols:n*nl.cols+n], l21)
	nl.data[n*nl.cols+n] = math.Sqrt(d)
	return &Cholesky{l: nl}, nil
}

// lower returns the lower triangle of the factor, row by row.
func lower(c *Cholesky) [][]float64 {
	n, _ := c.l.Dims()
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), c.l.RowView(i)[:i+1]...)
	}
	return out
}

func sameLower(t *testing.T, what string, got, want *Cholesky) {
	t.Helper()
	g, w := lower(got), lower(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range w {
		for j := range w[i] {
			if g[i][j] != w[i][j] {
				t.Fatalf("%s: L[%d,%d] = %v, want %v", what, i, j, g[i][j], w[i][j])
			}
		}
	}
}

// TestExtendInPlaceMatchesCopyAndExtend grows a factor forty times from n = 3
// — across several regrowths of its reserve — and holds every step to the old
// copy-and-extend (exactly) and to a fresh factorization of the bordered
// matrix, then runs every solve on the strided and the compact factor.
func TestExtendInPlaceMatchesCopyAndExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n0, steps = 3, 40
	a := randomSPD(n0+steps, rng)
	lead := func(n int) *Dense {
		m := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			copy(m.RowView(i), a.RowView(i)[:n])
		}
		return m
	}
	got, err := NewCholesky(lead(n0))
	if err != nil {
		t.Fatal(err)
	}
	old := got.Clone()
	regrowths := 0
	for n := n0; n < n0+steps; n++ {
		col := append([]float64(nil), a.RowView(n)[:n]...)
		_, before := got.l.Dims()
		if err := got.Extend(col, a.At(n, n)); err != nil {
			t.Fatal(err)
		}
		if _, after := got.l.Dims(); after != before {
			regrowths++
		}
		if old, err = oldExtend(old, col, a.At(n, n)); err != nil {
			t.Fatal(err)
		}
		sameLower(t, "in-place vs copy-and-extend", got, old)
		full, err := NewCholesky(lead(n + 1))
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range lower(full) {
			for j, v := range row {
				if !almostEqual(got.l.At(i, j), v, 1e-9) {
					t.Fatalf("n=%d: L[%d,%d] = %v, refactorization %v", n+1, i, j, got.l.At(i, j), v)
				}
			}
		}
	}
	if regrowths < 2 || regrowths > 8 {
		t.Fatalf("reserve regrown %d times over %d extensions; want a few", regrowths, steps)
	}
	if r, st := got.l.Dims(); st <= r {
		t.Fatalf("factor %d×%d has no spare stride; the solves below would not cover it", r, st)
	}

	n := n0 + steps
	b := make([]float64, 9*n) // two four-row sweeps and a remainder row
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b2 := append([]float64(nil), b...)
	got.SolveLowerBatch(b)
	old.SolveLowerBatch(b2)
	x, x2 := got.SolveVecInto(b[:n], make([]float64, n)), old.SolveVecInto(b2[:n], make([]float64, n))
	for i := range b {
		if b[i] != b2[i] {
			t.Fatalf("SolveLowerBatch diverges at %d", i)
		}
	}
	for i := range x {
		if x[i] != x2[i] {
			t.Fatalf("SolveVecInto diverges at %d", i)
		}
	}
	if got.LogDet() != old.LogDet() {
		t.Fatalf("LogDet %v vs %v", got.LogDet(), old.LogDet())
	}
}

// TestExtendWithinReserveAllocatesNothing: once a factor has reserve, a new
// row is a solve into it.
func TestExtendWithinReserveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n0 = 40
	a := randomSPD(n0+14, rng)
	var c Cholesky
	k := c.Reserve(n0)
	for i := 0; i < n0; i++ {
		copy(k.RowView(i), a.RowView(i)[:i+1])
	}
	if err := c.FactorInPlace(k); err != nil {
		t.Fatal(err)
	}
	n := n0
	extend := func() {
		if err := c.Extend(a.RowView(n)[:n], a.At(n, n)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	extend() // an exact first reservation has no reserve: this one regrows
	if allocs := testing.AllocsPerRun(10, extend); allocs != 0 {
		t.Fatalf("Extend within reserve allocates %.0f objects; want 0", allocs)
	}
}

// seKernel is a squared-exponential Gram entry with length-scale ell.
func seKernel(a, b []float64, ell float64) float64 {
	var d2 float64
	for i := range a {
		d2 += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Exp(-d2 / (2 * ell * ell))
}

// TestExtendNearDuplicateRows: borders that are near-copies of a row already
// in the factor (distance 1e-9), under an ordinary and a tiny length-scale and
// jitters down to none. Every Extend either refuses — and then the factor,
// its size, its stride and its reserve are what they were, and nothing of the
// attempted row shows through L or Clone — or yields a finite factor that
// reconstructs the bordered matrix.
func TestExtendNearDuplicateRows(t *testing.T) {
	for _, ell := range []float64{0.4, 1e-3} {
		for _, jitter := range []float64{0, 1e-12, 1e-8} {
			rng := rand.New(rand.NewSource(33))
			var pts [][]float64
			var c *Cholesky
			refused := 0
			for step := 0; step < 36; step++ {
				p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				if step%2 == 1 { // a near-duplicate of an accepted point
					src := pts[rng.Intn(len(pts))]
					for j := range p {
						p[j] = src[j] + 1e-9*rng.NormFloat64()
					}
				}
				if c == nil {
					var err error
					if c, err = NewCholesky(NewDense(1, 1, []float64{1 + jitter})); err != nil {
						t.Fatal(err)
					}
					pts = append(pts, p)
					continue
				}
				col := make([]float64, len(pts))
				for j, q := range pts {
					col[j] = seKernel(p, q, ell)
				}
				before, n := lower(c), len(pts)
				_, stride := c.l.Dims()
				reserve := cap(c.l.data)
				err := c.Extend(col, 1+jitter)
				if err != nil {
					if err != ErrNotPositiveDefinite {
						t.Fatalf("unexpected error %v", err)
					}
					refused++
					if r, st := c.L().Dims(); r != n || st != stride || cap(c.l.data) != reserve {
						t.Fatalf("refused Extend left a %d×%d factor (cap %d), was %d×%d (cap %d)", r, st, cap(c.l.data), n, stride, reserve)
					}
					after := lower(c)
					for i := range before {
						for j := range before[i] {
							if after[i][j] != before[i][j] {
								t.Fatalf("refused Extend changed L[%d,%d]", i, j)
							}
						}
					}
					cl := c.Clone()
					if r, _ := cl.L().Dims(); r != n {
						t.Fatalf("clone after a refused Extend has %d rows, want %d", r, n)
					}
					if err := cl.Extend(make([]float64, n), 4); err != nil {
						t.Fatal(err)
					}
					for j, v := range cl.L().RowView(n)[:n+1] {
						want := 0.0
						if j == n {
							want = 2
						}
						if v != want {
							t.Fatalf("clone's new row[%d] = %v after a refused Extend on the original; want %v", j, v, want)
						}
					}
					continue
				}
				pts = append(pts, p)
				l := lower(c)
				for i := range l {
					for j := range l[i] {
						if math.IsNaN(l[i][j]) || math.IsInf(l[i][j], 0) {
							t.Fatalf("ell=%g jitter=%g: L[%d,%d] = %v", ell, jitter, i, j, l[i][j])
						}
					}
				}
				for j := 0; j <= n; j++ { // the new row of L·Lᵀ against the border
					want := 1 + jitter
					if j < n {
						want = col[j]
					}
					if got := Dot(l[n][:j+1], l[j][:j+1]); math.Abs(got-want) > 1e-9 {
						t.Fatalf("ell=%g jitter=%g n=%d: (L·Lᵀ)[%d,%d] = %v, want %v", ell, jitter, n+1, n, j, got, want)
					}
				}
			}
			if jitter == 0 && refused == 0 {
				t.Fatalf("ell=%g: no near-duplicate border was refused without jitter; the test lost its teeth", ell)
			}
		}
	}
}

// TestCloneWithSpareStrideIndependent: a clone of a factor that holds reserve
// shares nothing with it — each side extends within its own reserve, by a
// different border, and matches copy-and-extend.
func TestCloneWithSpareStrideIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randomSPD(12, rng)
	lead := NewDense(10, 10, nil)
	for i := 0; i < 10; i++ {
		copy(lead.RowView(i), a.RowView(i)[:10])
	}
	c, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Extend(a.RowView(10)[:10], a.At(10, 10)); err != nil {
		t.Fatal(err)
	}
	if r, st := c.l.Dims(); st <= r {
		t.Fatalf("factor %d×%d holds no reserve", r, st)
	}
	base := c.Clone()
	cl := c.Clone()
	colA, colB := append([]float64(nil), a.RowView(11)[:11]...), make([]float64, 11)
	colB[0] = 0.5
	wantA, errA := oldExtend(base, colA, a.At(11, 11))
	wantB, errB := oldExtend(base, colB, 3)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if err := cl.Extend(colB, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Extend(colA, a.At(11, 11)); err != nil {
		t.Fatal(err)
	}
	sameLower(t, "original", c, wantA)
	sameLower(t, "clone", cl, wantB)
}
