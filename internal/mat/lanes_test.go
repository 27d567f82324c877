package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// seGram returns the squared-exponential Gram matrix of pts at length-scale
// ell, with jitter added to the diagonal: the matrices gp factors.
func seGram(pts [][]float64, ell, jitter float64) *Dense {
	n := len(pts)
	a := NewDense(n, n, nil)
	for i, p := range pts {
		for j, q := range pts {
			a.data[i*n+j] = seKernel(p, q, ell)
		}
	}
	return a.AddDiag(jitter)
}

// BenchmarkFactorInPlace factors a squared-exponential Gram matrix at the
// sizes a session's posterior evaluations see (n = 49 is a cold session's
// mean) and at n = 128, on the path this host runs (the lane kernel where it
// has one) and on the Go path.
func BenchmarkFactorInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{49, 60, 128} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		}
		a := seGram(pts, 0.4, 1e-2)
		for _, path := range []string{"Host", "Go"} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				if path == "Go" {
					withGoPaths(b)
				}
				var c Cholesky
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := c.Reserve(n, n)
					for r := 0; r < n; r++ {
						copy(k.RowView(r)[:n], a.RowView(r))
					}
					if err := c.FactorInPlace(k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// withGoPaths runs the rest of the test on the Go factorization and solve.
func withGoPaths(t testing.TB) {
	f, s := factor, solveLower
	factor, solveLower = factorGo, solveLowerGo
	t.Cleanup(func() { factor, solveLower = f, s })
}

// solveLowerDot is the textbook forward substitution, a dot product down
// U's column i per entry: y[i] = (b[i] − Σ_{k<i} U[k][i]·y[k]) / U[i][i],
// k ascending, each product rounded on its own.
func solveLowerDot(c *Cholesky, b []float64) []float64 {
	n, st := c.u.Dims()
	y := make([]float64, n)
	for i := range y {
		s := b[i]
		for k, v := range y[:i] {
			s -= float64(c.u.data[k*st+i] * v)
		}
		y[i] = s / c.u.data[i*st+i]
	}
	return y
}

// TestSolveLowerMatchesDotForm: on this host's path and on the Go path, the
// one-row solve and every row of a batch (every remainder of its groups of
// four) are the dot form's bit for bit, at every remainder of the lane
// kernel's column blocks.
func TestSolveLowerMatchesDotForm(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, path := range []string{"Host", "Go"} {
		t.Run(path, func(t *testing.T) {
			if path == "Go" {
				withGoPaths(t)
			}
			for n := 1; n <= 70; n++ {
				pts := make([][]float64, n)
				for i := range pts {
					pts[i] = []float64{rng.Float64(), rng.Float64()}
				}
				c, err := NewCholesky(seGram(pts, 0.3, 1e-4))
				if err != nil {
					t.Fatal(err)
				}
				b := make([]float64, 7*n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				batch := append([]float64(nil), b...)
				c.SolveLowerBatch(batch)
				one := make([]float64, n)
				for m := 0; m < len(b); m += n {
					c.SolveLowerVecInto(b[m:m+n], one)
					for i, w := range solveLowerDot(c, b[m:m+n]) {
						if one[i] != w || batch[m+i] != w {
							t.Fatalf("n=%d row %d col %d: one-row %v, batch %v, dot form %v", n, m/n, i, one[i], batch[m+i], w)
						}
					}
				}
			}
		})
	}
}

// BenchmarkSolveLowerVecInto times the one-row forward solve at the sizes
// BenchmarkFactorInPlace takes, on this host's path and on the Go path.
func BenchmarkSolveLowerVecInto(b *testing.B) {
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{49, 60, 128} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		}
		c, err := NewCholesky(seGram(pts, 0.4, 1e-2))
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		dst := make([]float64, n)
		for _, path := range []string{"Host", "Go"} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				if path == "Go" {
					withGoPaths(b)
				}
				for i := 0; i < b.N; i++ {
					c.SolveLowerVecInto(rhs, dst)
				}
			})
		}
	}
}
