package mat

import (
	"math"
	"math/rand"
	"testing"
)

// oldExtend is Cholesky.Extend as it was before the factor grew in place: a
// fresh (n+1)×(n+1) matrix per point, the old rows copied across.
func oldExtend(c *Cholesky, col []float64, diag float64) (*Cholesky, error) {
	n, st := c.u.Dims()
	u12 := c.SolveLowerVecInto(col, make([]float64, n))
	d := diag - Dot(u12, u12)
	if d <= 0 || math.IsNaN(d) {
		return nil, ErrNotPositiveDefinite
	}
	nu := NewDense(n+1, n+1, nil)
	for i := 0; i < n; i++ {
		copy(nu.data[i*nu.cols:i*nu.cols+n], c.u.data[i*st:i*st+n])
		nu.data[i*nu.cols+n] = u12[i]
	}
	nu.data[n*nu.cols+n] = math.Sqrt(d)
	return &Cholesky{u: nu}, nil
}

// lower returns the factor's L row by row.
func lower(c *Cholesky) [][]float64 {
	l := factorL(c)
	out := make([][]float64, l.rows)
	for i := range out {
		out[i] = l.RowView(i)[:i+1]
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
		_, before := got.u.Dims()
		if err := got.Extend(col, a.At(n, n)); err != nil {
			t.Fatal(err)
		}
		if _, after := got.u.Dims(); after != before {
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
		gl := lower(got)
		for i, row := range lower(full) {
			for j, v := range row {
				if !almostEqual(gl[i][j], v, 1e-9) {
					t.Fatalf("n=%d: L[%d,%d] = %v, refactorization %v", n+1, i, j, gl[i][j], v)
				}
			}
		}
	}
	if regrowths < 2 || regrowths > 8 {
		t.Fatalf("reserve regrown %d times over %d extensions; want a few", regrowths, steps)
	}
	if r, st := got.u.Dims(); st <= r {
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
// row is a solve into it. A factor reserved with a capacity has that reserve
// from the start: every Extend up to the capacity, the first included, writes
// into the storage Reserve returned, and a refit at any size up to it
// reserves that same storage again.
func TestExtendWithinReserveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n0, capacity = 40, 54
	a := randomSPD(capacity, rng)
	for _, reserved := range []int{n0, capacity} {
		var c Cholesky
		k := c.Reserve(n0, reserved)
		for i := 0; i < n0; i++ {
			copy(k.RowView(i)[i:n0], a.RowView(i)[i:n0])
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
		if reserved == n0 {
			extend() // an exact reservation has no reserve: this one regrows
			if allocs := testing.AllocsPerRun(10, extend); allocs != 0 {
				t.Fatalf("Extend within reserve allocates %.0f objects; want 0", allocs)
			}
			continue
		}
		first := &k.data[0]
		if allocs := testing.AllocsPerRun(capacity-n0-1, extend); allocs != 0 {
			t.Fatalf("Extend within a capacity reserve allocates %.0f objects; want 0", allocs)
		}
		if n != capacity || &c.u.data[0] != first {
			t.Fatalf("factor at n=%d moved out of the storage reserved for %d", n, capacity)
		}
		if allocs := testing.AllocsPerRun(5, func() { c.Reserve(capacity, capacity) }); allocs != 0 || &c.u.data[0] != first {
			t.Fatalf("a refit within the capacity allocates %.0f objects or moves the storage", allocs)
		}
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
				_, stride := c.u.Dims()
				reserve := cap(c.u.data)
				err := c.Extend(col, 1+jitter)
				if err != nil {
					if err != ErrNotPositiveDefinite {
						t.Fatalf("unexpected error %v", err)
					}
					refused++
					if r, st := c.U().Dims(); r != n || st != stride || cap(c.u.data) != reserve {
						t.Fatalf("refused Extend left a %d×%d factor (cap %d), was %d×%d (cap %d)", r, st, cap(c.u.data), n, stride, reserve)
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
					if r, _ := cl.U().Dims(); r != n {
						t.Fatalf("clone after a refused Extend has %d rows, want %d", r, n)
					}
					if err := cl.Extend(make([]float64, n), 4); err != nil {
						t.Fatal(err)
					}
					for j, v := range lower(cl)[n] {
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
	if r, st := c.u.Dims(); st <= r {
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

// TestExtendMatchesRefactorization: a factor of A's leading n×n block
// extended by A's last column equals the factorization of all of A. The new
// column's off-diagonal entries are bit-equal (the forward substitution runs
// the factorization's own subtractions), and so is everything before it; the
// new diagonal sums the squares in Dot's order, and its pivot must be within
// 4 ulp of the factorization's, on the scale of A's diagonal entry.
// The borders are fresh points and near-duplicates (1e-9 away) of earlier
// ones under jitter. Exact duplicates without jitter follow.
func TestExtendMatchesRefactorization(t *testing.T) {
	// pivotUlps measures two diagonals u, v by their pivots u², v², in ulps
	// of the matrix's diagonal entry a: a pivot is a minus a sum of squares
	// that nearly cancels it, so the diagonal's own ulps measure that
	// cancellation rather than the order of the sum.
	pivotUlps := func(u, v, a float64) float64 {
		return math.Abs(u*u-v*v) / (math.Nextafter(a, math.Inf(1)) - a)
	}
	// factor factors the leading n×n block of a into c's reserve.
	factor := func(c *Cholesky, a *Dense, n int) error {
		k := c.Reserve(n, n)
		for i := 0; i < n; i++ {
			copy(k.RowView(i)[i:n], a.RowView(i)[i:n])
		}
		return c.FactorInPlace(k)
	}
	rng := rand.New(rand.NewSource(35))
	for _, ell := range []float64{0.4, 0.05} {
		for _, jitter := range []float64{1e-6, 1e-12} {
			var pts [][]float64
			for n := 0; n < 64; n++ {
				p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				if n > 0 && n%3 == 0 {
					src := pts[rng.Intn(n)]
					for j := range p {
						p[j] = src[j] + 1e-9*rng.NormFloat64()
					}
				}
				pts = append(pts, p)
				if n == 0 {
					continue
				}
				a := seGram(pts, ell, jitter)
				var ext, full Cholesky
				if err := factor(&ext, a, n); err != nil {
					t.Fatal(err)
				}
				col := make([]float64, n)
				for k := range col {
					col[k] = a.At(k, n)
				}
				if err := ext.Extend(col, a.At(n, n)); err != nil {
					t.Fatalf("ell=%g jitter=%g n=%d: Extend: %v", ell, jitter, n+1, err)
				}
				if err := factor(&full, a, n+1); err != nil {
					t.Fatalf("ell=%g jitter=%g n=%d: refactorization: %v", ell, jitter, n+1, err)
				}
				for i := 0; i <= n; i++ {
					for j := i; j <= n; j++ {
						got, want := ext.U().At(i, j), full.U().At(i, j)
						if math.Float64bits(got) == math.Float64bits(want) || i == n && pivotUlps(got, want, a.At(n, n)) <= 4 {
							continue
						}
						t.Fatalf("ell=%g jitter=%g n=%d: U[%d][%d] = %v extended, %v refactored", ell, jitter, n+1, i, j, got, want)
					}
				}
			}
		}
	}

	// Exact duplicates without jitter: the bordered matrix is singular, and
	// each path finds a pivot that is zero up to rounding. A duplicate of the
	// first point gives exactly zero on both (its column of U is A's first
	// row over U[0][0] = 1, and every later entry cancels exactly), so both
	// refuse it. Elsewhere the rounded pivot may come out an ulp or two
	// either side of zero, on either path independently: an accepted pivot
	// must be at that level, and a refusal must leave the receiver as it
	// was.
	for set := 0; set < 8; set++ {
		pts := make([][]float64, 12)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		n := len(pts)
		for m := range pts {
			a := seGram(append(pts[:n:n], pts[m]), 0.4, 0)
			var ext, full Cholesky
			if err := factor(&ext, a, n); err != nil {
				t.Fatal(err)
			}
			before := cloneDense(ext.U())
			col := make([]float64, n)
			for k := range col {
				col[k] = a.At(k, n)
			}
			errExt := ext.Extend(col, a.At(n, n))
			if err := factor(&full, a, n); err != nil {
				t.Fatal(err)
			}
			kept := full.U()
			k := (&Cholesky{}).Reserve(n+1, n+1)
			for i := 0; i <= n; i++ {
				copy(k.RowView(i)[i:n+1], a.RowView(i)[i:n+1])
			}
			errFull := full.FactorInPlace(k)
			if m == 0 && (errExt == nil || errFull == nil) {
				t.Fatalf("set %d: a duplicate of the first point was accepted (Extend %v, refactorization %v)", set, errExt, errFull)
			}
			for _, r := range []struct {
				err error
				c   *Cholesky
			}{{errExt, &ext}, {errFull, &full}} {
				if r.err == nil {
					if pu := pivotUlps(r.c.U().At(n, n), 0, a.At(n, n)); pu > 4 {
						t.Fatalf("set %d, duplicate of point %d: accepted pivot %g ulp of A's diagonal, want rounding level", set, m, pu)
					}
				} else if r.err != ErrNotPositiveDefinite {
					t.Fatal(r.err)
				}
			}
			if errFull != nil && full.U() != kept {
				t.Fatalf("set %d, duplicate of point %d: a refused FactorInPlace moved the receiver", set, m)
			}
			if errExt == nil {
				continue
			}
			got := ext.U()
			if r, c := got.Dims(); r != n || c != before.cols {
				t.Fatalf("set %d, duplicate of point %d: a refused Extend left a %d×%d factor", set, m, r, c)
			}
			for i := range got.data {
				if got.data[i] != before.data[i] {
					t.Fatalf("set %d, duplicate of point %d: a refused Extend changed the factor's storage at %d", set, m, i)
				}
			}
		}
	}
}
