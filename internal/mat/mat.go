// Package mat provides the small dense linear-algebra kernel used by the
// Gaussian-process and kernel-PCA code: a row-major dense matrix type,
// Cholesky factorization with triangular solves, and a symmetric Jacobi
// eigendecomposition.
//
// The package is deliberately minimal — it implements exactly the operations
// the tuner needs, with defensive dimension checks that panic on programmer
// error (mismatched shapes are bugs, not runtime conditions).
//
// Buffers: …Into functions write into storage the caller owns; a Cholesky
// owns its storage and may hold more of it than n².
package mat

import (
	"fmt"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c matrix. If data is non-nil it must have
// length r*c and is used directly (not copied).
func NewDense(r, c int, data []float64) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// ColInto copies column j into dst (which must have length rows) and
// returns dst. Hot loops that walk columns, such as SymEigen's eigenvector
// reordering, use it to reuse one buffer instead of allocating a fresh slice
// per column.
func (m *Dense) ColInto(j int, dst []float64) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: ColInto dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
	return dst
}

// RowView returns row i as a slice sharing the matrix's storage (no copy).
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows, nil)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols, nil)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a·x as a new vector.
func MulVec(a *Dense, x []float64) []float64 {
	return MulVecInto(a, x, make([]float64, a.rows))
}

// MulVecInto computes a·x into dst (length rows) and returns dst.
func MulVecInto(a *Dense, x, dst []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %d×%d · %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst length %d, want %d", len(dst), a.rows))
	}
	for i := range dst {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// AddDiag adds v to every diagonal element in place and returns m.
func (m *Dense) AddDiag(v float64) *Dense {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}
