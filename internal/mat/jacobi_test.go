package mat

import (
	"math"
	"math/rand"
	"testing"
)

// symEigenJacobi computes the eigendecomposition by the cyclic Jacobi
// rotation method — the reference implementation SymEigen's QL path is
// cross-checked against. Only the lower triangle is read. O(n³) per sweep
// with quadratic convergence; convergence is judged relative to the matrix's
// Frobenius norm, so uniformly scaling the input (large Gram matrices, tiny
// kernels) changes neither the sweep count nor the relative accuracy.
func symEigenJacobi(a *Dense) (*Eigen, error) {
	w, err := symCopy(a)
	if err != nil {
		return nil, err
	}
	n, _ := w.Dims()
	v := identity(n)

	fro := frobeniusNorm(w)
	if fro == 0 {
		// The zero matrix: spectrum is all zeros, vectors the identity.
		return sortEigen(make([]float64, n), v), nil
	}
	offTol := 1e-12 * fro // convergence: off-diagonal mass negligible vs A
	rotTol := 1e-15 * fro // skip rotations on relatively negligible entries

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < offTol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < rotTol {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cc := 1 / math.Sqrt(1+t*t)
				s := t * cc
				tau := s / (1 + cc)

				w.Set(p, p, app-t*apq)
				w.Set(q, q, aqq+t*apq)
				w.Set(p, q, 0)
				w.Set(q, p, 0)
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip, aiq := w.At(i, p), w.At(i, q)
						w.Set(i, p, aip-s*(aiq+tau*aip))
						w.Set(p, i, w.At(i, p))
						w.Set(i, q, aiq+s*(aip-tau*aiq))
						w.Set(q, i, w.At(i, q))
					}
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, vip-s*(viq+tau*vip))
					v.Set(i, q, viq+s*(vip-tau*viq))
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	return sortEigen(vals, v), nil
}

func frobeniusNorm(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

func offDiagNorm(a *Dense) float64 {
	n, _ := a.Dims()
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// BenchmarkKPCAFit/EigenJacobi is the reference's row of the eigensolver
// swap (the Fit and EigenQL rows are in the root bench_test.go): the cyclic
// Jacobi sweeps on the Gaussian Gram matrix of an IICP-scale sample matrix.
func BenchmarkKPCAFit(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, d := 160, 38
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}
	// kpca's default Gaussian kernel, exp(-|a-b|²/d); kpca imports mat, so
	// the kernel is written out here.
	gram := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var d2 float64
			for k := range xs[i] {
				diff := xs[i][k] - xs[j][k]
				d2 += diff * diff
			}
			v := math.Exp(-d2 / float64(d))
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	b.Run("EigenJacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := symEigenJacobi(gram); err != nil {
				b.Fatal(err)
			}
		}
	})
}
