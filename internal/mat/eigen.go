package mat

import (
	"errors"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: A·v_i = λ_i·v_i.
// Eigenvalues are sorted in descending order; Vectors column i corresponds to
// Values[i].
type Eigen struct {
	Values  []float64
	Vectors *Dense // n×n, columns are unit eigenvectors
}

// SymEigen computes the full eigendecomposition of the symmetric matrix a.
// Only the lower triangle is read.
//
// The method is the classic two-stage dense solver: Householder reduction to
// tridiagonal form with accumulation of the orthogonal transform (O(n³) once),
// followed by the implicit-shift QL iteration on the tridiagonal matrix
// (O(n²) per eigenvalue). For the Gram matrices kernel PCA feeds it (n up to
// a few hundred) this runs an order of magnitude faster than the cyclic
// Jacobi sweeps it replaced; that solver lives on in this package's tests as
// the reference SymEigen is cross-checked against.
func SymEigen(a *Dense) (*Eigen, error) {
	w, err := symCopy(a)
	if err != nil {
		return nil, err
	}
	n, _ := w.Dims()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(w, d, e)
	if err := tqli(d, e, w); err != nil {
		return nil, err
	}
	return sortEigen(d, w), nil
}

// symCopy returns a full symmetric copy of a's lower triangle.
func symCopy(a *Dense) (*Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, errors.New("mat: SymEigen of non-square matrix")
	}
	w := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := a.At(i, j)
			w.Set(i, j, v)
			w.Set(j, i, v)
		}
	}
	return w, nil
}

// sortEigen orders the spectrum descending, permuting eigenvector columns to
// match. Columns move through one reusable buffer (ColInto) instead of a
// fresh slice per column.
func sortEigen(vals []float64, vecs *Dense) *Eigen {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n, nil)
	col := make([]float64, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		vecs.ColInto(oldCol, col)
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, newCol, col[i])
		}
	}
	return &Eigen{Values: sortedVals, Vectors: sortedVecs}
}

// tred2 reduces the symmetric matrix z to tridiagonal form by Householder
// reflections, accumulating the orthogonal transform into z. On return d
// holds the diagonal, e[1..n-1] the subdiagonal (e[0] = 0), and z·T·zᵀ
// reconstructs the input. Standard EISPACK/Numerical-Recipes recurrences,
// zero-indexed.
func tred2(z *Dense, d, e []float64) {
	n, _ := z.Dims()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tqli diagonalizes the tridiagonal matrix (d, e) by QL iterations with
// implicit Wilkinson shifts, rotating the eigenvector columns of z along.
// On return d holds the (unsorted) eigenvalues.
func tqli(d, e []float64, z *Dense) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const eps = 2.220446049250313e-16 // double-precision machine epsilon
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first split point: a subdiagonal negligible against
			// its neighbouring diagonal entries.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 50 {
				return errors.New("mat: SymEigen QL iteration did not converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
