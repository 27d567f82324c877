package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomSPD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := Mul(b.T(), b)
	a.AddDiag(0.1)
	return a
}

// eigenResidual returns max_i ‖A·v_i − λ_i·v_i‖ / ‖A‖_F.
func eigenResidual(a *Dense, e *Eigen) float64 {
	n, _ := a.Dims()
	fro := frobeniusNorm(a)
	if fro == 0 {
		fro = 1
	}
	var worst float64
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e.Vectors.ColInto(j, col)
		av := MulVec(a, col)
		var r2 float64
		for i := 0; i < n; i++ {
			d := av[i] - e.Values[j]*col[i]
			r2 += d * d
		}
		if r := math.Sqrt(r2) / fro; r > worst {
			worst = r
		}
	}
	return worst
}

func TestSymEigenQLvsJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40} {
		a := randomSPD(n, rng)
		ql, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d: QL: %v", n, err)
		}
		jac, err := symEigenJacobi(a)
		if err != nil {
			t.Fatalf("n=%d: Jacobi: %v", n, err)
		}
		scale := math.Abs(ql.Values[0])
		for i := range ql.Values {
			if math.Abs(ql.Values[i]-jac.Values[i]) > 1e-9*scale {
				t.Fatalf("n=%d: eigenvalue %d: QL %v vs Jacobi %v", n, i, ql.Values[i], jac.Values[i])
			}
		}
		if r := eigenResidual(a, ql); r > 1e-10 {
			t.Fatalf("n=%d: QL residual %v", n, r)
		}
		if r := eigenResidual(a, jac); r > 1e-10 {
			t.Fatalf("n=%d: Jacobi residual %v", n, r)
		}
	}
}

// Degenerate spectra (repeated eigenvalues) must not break either solver.
func TestSymEigenRepeatedEigenvalues(t *testing.T) {
	n := 6
	a := identity(n)
	a.Set(3, 3, 5)
	for _, solve := range []func(*Dense) (*Eigen, error){SymEigen, symEigenJacobi} {
		e, err := solve(a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e.Values[0]-5) > 1e-12 || math.Abs(e.Values[n-1]-1) > 1e-12 {
			t.Fatalf("spectrum = %v", e.Values)
		}
		if r := eigenResidual(a, e); r > 1e-12 {
			t.Fatalf("residual %v", r)
		}
	}
}

// The Jacobi tolerance is relative to the Frobenius norm: rescaling the
// matrix by 12 orders of magnitude either way must neither stall convergence
// (large matrices under the old absolute 1e-12 cutoff span all 64 sweeps)
// nor produce garbage on tiny ones. Both solvers must keep relative accuracy
// across scales.
func TestSymEigenScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := randomSPD(12, rng)
	ref, err := SymEigen(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1e-12, 1e-6, 1, 1e6, 1e12} {
		scaled := scaleBy(scale, base)
		for name, solve := range map[string]func(*Dense) (*Eigen, error){
			"QL": SymEigen, "Jacobi": symEigenJacobi,
		} {
			e, err := solve(scaled)
			if err != nil {
				t.Fatalf("%s scale=%g: %v", name, scale, err)
			}
			for i := range e.Values {
				want := ref.Values[i] * scale
				if math.Abs(e.Values[i]-want) > 1e-9*math.Abs(ref.Values[0])*scale {
					t.Fatalf("%s scale=%g: eigenvalue %d = %v, want %v", name, scale, i, e.Values[i], want)
				}
			}
			if r := eigenResidual(scaled, e); r > 1e-10 {
				t.Fatalf("%s scale=%g: residual %v", name, scale, r)
			}
		}
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	z := NewDense(4, 4, nil)
	for _, solve := range []func(*Dense) (*Eigen, error){SymEigen, symEigenJacobi} {
		e, err := solve(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range e.Values {
			if v != 0 {
				t.Fatalf("zero matrix spectrum = %v", e.Values)
			}
		}
	}
}

func TestColInto(t *testing.T) {
	m := NewDense(3, 2, []float64{1, 2, 3, 4, 5, 6})
	buf := make([]float64, 3)
	if got := m.ColInto(1, buf); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("ColInto = %v", got)
	}
	if c := column(m, 0); c[0] != 1 || c[1] != 3 || c[2] != 5 {
		t.Fatalf("Col = %v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	m.ColInto(0, make([]float64, 2))
}

func TestSolveLowerVecIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(15, rng)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 15)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := c.SolveLowerVecInto(b, make([]float64, 15))
	got := append([]float64(nil), b...)
	c.SolveLowerVecInto(got, got) // in place
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aliased solve diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestParRangeCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
		hit := make([]int, n)
		ParRange(n, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

// TestSolveLowerBatchMatchesVec: the four-rows-per-sweep solve must return,
// for every row, exactly what SolveLowerVecInto returns for that row alone —
// at every remainder of the four-row grouping, on either side of n = 64, and
// however ParRange cuts the rows into blocks across 1, 2 or 4 workers (a
// block boundary moves rows between the grouped and the row-at-a-time loop).
func TestSolveLowerBatchMatchesVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 63, 64, 65} {
		c, err := NewCholesky(randomSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 1, 3, 4, 5, 577} {
			b := make([]float64, m*n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := make([]float64, m*n)
			for r := 0; r < m; r++ {
				c.SolveLowerVecInto(b[r*n:(r+1)*n], want[r*n:(r+1)*n])
			}
			for _, workers := range []int{1, 2, 4} {
				got := append([]float64(nil), b...)
				ParRange(m, workers, func(lo, hi int) { c.SolveLowerBatch(got[lo*n : hi*n]) })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d m=%d workers=%d: row %d col %d: batch %v vs vec %v",
							n, m, workers, i/n, i%n, got[i], want[i])
					}
				}
			}
		}
	}
	c, _ := NewCholesky(randomSPD(3, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	c.SolveLowerBatch(make([]float64, 7))
}

// TestFactorLowerMatchesRowAtATime pins factorUpper, which writes U = Lᵀ a
// row of U at a time, to the textbook dot-product recurrence over a
// row-major L that it reorders: same factor, bit for bit, at every
// remainder of the lane kernel's 16/4/1 column blocks.
func TestFactorLowerMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 70; n++ {
		a := randomSPD(n, rng)
		want := cloneDense(a)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				s := want.At(i, j)
				for k := 0; k < j; k++ {
					s -= want.At(i, k) * want.At(j, k)
				}
				if i == j {
					want.Set(j, j, math.Sqrt(s))
				} else {
					want.Set(i, j, s/want.At(j, j))
				}
			}
		}
		if err := factorUpper(a); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if a.At(j, i) != want.At(i, j) {
					t.Fatalf("n=%d: L[%d][%d] = %v, row-at-a-time %v", n, i, j, a.At(j, i), want.At(i, j))
				}
			}
		}
	}
}
