package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4, nil)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d; want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v; want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero rows", func() { NewDense(0, 3, nil) }},
		{"negative cols", func() { NewDense(3, -1, nil) }},
		{"bad data len", func() { NewDense(2, 2, make([]float64, 3)) }},
		{"index out of range", func() { NewDense(2, 2, nil).At(2, 0) }},
		{"set out of range", func() { NewDense(2, 2, nil).Set(0, 5, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3, nil)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At = %v; want 42.5", got)
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := Mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEqual(p.At(i, j), want[i][j], eps) {
				t.Fatalf("Mul[%d,%d] = %v; want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3, nil), NewDense(2, 3, nil))
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(a, []float64{1, 0, -1})
	if !almostEqual(y[0], -2, eps) || !almostEqual(y[1], -2, eps) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestAddDiag(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	a.AddDiag(10)
	if a.At(0, 0) != 11 || a.At(1, 1) != 14 || a.At(0, 1) != 2 {
		t.Fatal("AddDiag wrong")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2,0,0],[6,1,0],[-8,5,3]].
	a := NewDense(3, 3, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	wantL := [][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(factorL(ch).At(i, j), wantL[i][j], eps) {
				t.Fatalf("L[%d,%d] = %v; want %v", i, j, factorL(ch).At(i, j), wantL[i][j])
			}
		}
	}
	// log|A| = log(4·1·9... ) = 2·(log2+log1+log3)
	wantLogDet := 2 * (math.Log(2) + math.Log(1) + math.Log(3))
	if !almostEqual(ch.LogDet(), wantLogDet, eps) {
		t.Fatalf("LogDet = %v; want %v", ch.LogDet(), wantLogDet)
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewDense(3, 3, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := []float64{1, -2, 0.5}
	b := MulVec(a, xTrue)
	x := solveVec(ch, b)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("SolveVec[%d] = %v; want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v; want ErrNotPositiveDefinite", err)
	}
	if _, err := NewCholesky(NewDense(2, 3, nil)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

// solveVec solves A·x = b into a fresh vector.
func solveVec(c *Cholesky, b []float64) []float64 {
	return c.SolveVecInto(b, make([]float64, len(b)))
}

func TestCholeskySolveLowerVec(t *testing.T) {
	a := NewDense(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 5}
	y := ch.SolveLowerVecInto(b, make([]float64, 2))
	// Verify L·y = b.
	got := MulVec(factorL(ch), y)
	for i := range b {
		if !almostEqual(got[i], b[i], 1e-9) {
			t.Fatalf("L·y = %v; want %v", got, b)
		}
	}
}

// Property: for random SPD matrices A = MᵀM + n·I, Cholesky reconstructs A
// and SolveVec inverts MulVec.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a := Mul(m.T(), m).AddDiag(float64(n))
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		// Reconstruct: L·Lᵀ = A.
		rec := Mul(factorL(ch), ch.U())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-7) {
					return false
				}
			}
		}
		// Solve round trip.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := solveVec(ch, MulVec(a, x))
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewDense(3, 3, []float64{3, 0, 0, 0, 1, 0, 0, 0, 2})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !almostEqual(e.Values[i], w, 1e-10) {
			t.Fatalf("Values = %v; want %v", e.Values, want)
		}
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2 and (1,-1)/√2.
	a := NewDense(2, 2, []float64{2, 1, 1, 2})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 3, 1e-10) || !almostEqual(e.Values[1], 1, 1e-10) {
		t.Fatalf("Values = %v", e.Values)
	}
	v0 := column(e.Vectors, 0)
	if !almostEqual(math.Abs(v0[0]), 1/math.Sqrt2, 1e-9) {
		t.Fatalf("first eigenvector = %v", v0)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3, nil)); err == nil {
		t.Fatal("expected error")
	}
}

// Property: eigendecomposition of random symmetric matrices satisfies
// A·v = λ·v, vectors are orthonormal, and trace = Σλ.
func TestSymEigenProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
		}
		if !almostEqual(trace, sum, 1e-7) {
			return false
		}
		for k := 0; k < n; k++ {
			v := column(e.Vectors, k)
			av := MulVec(a, v)
			for i := 0; i < n; i++ {
				if !almostEqual(av[i], e.Values[k]*v[i], 1e-6) {
					return false
				}
			}
			// Orthonormality against earlier vectors.
			if !almostEqual(norm2(v), 1, 1e-7) {
				return false
			}
			for k2 := 0; k2 < k; k2++ {
				if !almostEqual(Dot(v, column(e.Vectors, k2)), 0, 1e-7) {
					return false
				}
			}
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// spdMatrix returns a random n×n symmetric positive definite matrix.
func spdMatrix(n int, rng *rand.Rand) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return Mul(m.T(), m).AddDiag(float64(n))
}

func TestCholeskyExtendMatchesFullFactorization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := spdMatrix(n+1, rng)

		// Factor the leading n×n block, then border-extend by the last
		// row/column of a.
		lead := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				lead.Set(i, j, a.At(i, j))
			}
		}
		ch, err := NewCholesky(lead)
		if err != nil {
			return false
		}
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = a.At(n, i)
		}
		if err := ch.Extend(col, a.At(n, n)); err != nil {
			return false
		}

		full, err := NewCholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= i; j++ {
				if !almostEqual(ch.U().At(j, i), full.U().At(j, i), 1e-8) {
					return false
				}
			}
		}
		// The extended factor must solve against the bordered matrix.
		x := make([]float64, n+1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := solveVec(ch, MulVec(a, x))
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6) {
				return false
			}
		}
		return almostEqual(ch.LogDet(), full.LogDet(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyExtendRejectsNotPD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := spdMatrix(3, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := cloneDense(ch.U())
	// A border whose diagonal is dominated by the off-diagonal column makes
	// the extension indefinite.
	col := []float64{100, 100, 100}
	if err := ch.Extend(col, 1e-9); err != ErrNotPositiveDefinite {
		t.Fatalf("Extend accepted an indefinite border: %v", err)
	}
	// The factor must be untouched and still usable.
	r, c := ch.U().Dims()
	if r != 3 || c != 3 {
		t.Fatalf("factor resized to %d×%d after failed Extend", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if ch.U().At(i, j) != before.At(i, j) {
				t.Fatal("factor mutated by failed Extend")
			}
		}
	}
}

func TestCholeskyExtendLengthPanics(t *testing.T) {
	ch, err := NewCholesky(identity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = ch.Extend([]float64{1}, 1)
}

func TestCholeskyCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := spdMatrix(3, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	cl := ch.Clone()
	if err := cl.Extend([]float64{0, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if r, _ := ch.U().Dims(); r != 3 {
		t.Fatal("extending a clone resized the original")
	}
	if r, _ := cl.U().Dims(); r != 4 {
		t.Fatal("clone not extended")
	}
}
