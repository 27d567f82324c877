package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestFactorInPlaceMatchesNewCholesky: the in-place factorization must
// produce the exact factor NewCholesky computes into fresh storage (the
// recurrences are the same, in the same order), and the solves and log
// determinant must agree bit-for-bit.
func TestFactorInPlaceMatchesNewCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 2, 7, 40} {
		a := spdMatrix(n, rng)
		want, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		var c Cholesky
		work := cloneDense(a)
		if err := c.FactorInPlace(work); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got, w := c.U().At(j, i), want.U().At(j, i); got != w {
					t.Fatalf("n=%d L(%d,%d) = %v, want %v", n, i, j, got, w)
				}
			}
		}
		if c.LogDet() != want.LogDet() {
			t.Fatalf("n=%d logdet %v != %v", n, c.LogDet(), want.LogDet())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, x2 := solveVec(want, b), solveVec(&c, b)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("n=%d solve diverged at %d: %v vs %v", n, i, x1[i], x2[i])
			}
		}
	}
}

func TestFactorInPlaceErrors(t *testing.T) {
	var c Cholesky
	if err := c.FactorInPlace(NewDense(2, 3, nil)); err == nil {
		t.Fatal("non-square accepted")
	}
	notPD := NewDense(2, 2, []float64{1, 2, 2, 1})
	if err := c.FactorInPlace(notPD); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	// The receiver must be untouched by failures: factoring a valid matrix
	// afterwards still works.
	ok := NewDense(2, 2, []float64{4, 1, 1, 3})
	if err := c.FactorInPlace(ok); err != nil {
		t.Fatal(err)
	}
	if got := c.U().At(0, 0); got != 2 {
		t.Fatalf("L(0,0) = %v, want 2", got)
	}
}

// TestSolveVecIntoAliasing: dst may alias b — the substitution contract the
// zero-allocation α refresh of gp's hyperparameter sampler relies on.
func TestSolveVecIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 12
	a := spdMatrix(n, rng)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := solveVec(c, b)
	inPlace := append([]float64(nil), b...)
	got := c.SolveVecInto(inPlace, inPlace)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aliased solve diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Residual check: A·x ≈ b.
	ax := MulVec(a, want)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}
