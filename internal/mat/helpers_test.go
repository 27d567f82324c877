package mat

import "math"

// Shapes only the tests build; the production code never needs them.

// identity returns the n×n identity matrix.
func identity(n int) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// column returns a copy of column j of m.
func column(m *Dense, j int) []float64 { return m.ColInto(j, make([]float64, m.rows)) }

// U returns the factor's own storage (not a copy): an n×stride matrix whose
// leading n×n upper triangle is U = Lᵀ. Entries below the diagonal and
// columns past n are unspecified.
func (c *Cholesky) U() *Dense { return c.u }

// cloneDense returns a deep copy of m.
func cloneDense(m *Dense) *Dense {
	return NewDense(m.rows, m.cols, append([]float64(nil), m.data...))
}

// scaleBy returns s·a.
func scaleBy(s float64, a *Dense) *Dense {
	out := NewDense(a.rows, a.cols, nil)
	for i := range a.data {
		out.data[i] = s * a.data[i]
	}
	return out
}

// factorL returns the factor's L = Uᵀ as a fresh n×n matrix, zero above the
// diagonal.
func factorL(c *Cholesky) *Dense {
	n, _ := c.u.Dims()
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.data[i*n+j] = c.u.At(j, i)
		}
	}
	return l
}

// norm2 returns the Euclidean norm of x.
func norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }
