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
					k := c.Reserve(n)
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
	f, s := factor, solveLower4
	factor, solveLower4 = factorGo, solveLower4Go
	t.Cleanup(func() { factor, solveLower4 = f, s })
}
