package mat

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Dense // lower triangular, n×n
}

// NewCholesky factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	n, c := a.Dims()
	if n != c {
		return nil, errors.New("mat: Cholesky of non-square matrix")
	}
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		copy(l.data[i*n:i*n+i+1], a.data[i*a.cols:i*a.cols+i+1])
	}
	if err := factorLower(l); err != nil {
		return nil, err
	}
	return &Cholesky{l: l}, nil
}

// factorLower runs the Cholesky recurrences in place over the lower triangle
// of l: on entry the lower triangle holds A, on exit it holds L. The column-j
// recurrences read position (i,j) exactly once — while it still holds A's
// value — before overwriting it, so the factor is identical to one computed
// into separate storage. Entries above the diagonal are never touched (every
// consumer of the factor — the triangular solves, LogDet, Extend — reads the
// lower triangle only). Inner loops run over row slices, which is what makes
// the zero-allocation refit path of gp's hyperparameter sampler cheap.
func factorLower(l *Dense) error {
	n := l.rows
	ld := l.data
	for j := 0; j < n; j++ {
		lrowj := ld[j*n : j*n+j+1]
		d := lrowj[j]
		for _, v := range lrowj[:j] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lrowj[j] = dj
		// Column j below the diagonal, four rows per sweep of row j: each
		// row's dot product is a chain of dependent subtractions, and four
		// independent chains keep the floating-point unit busy where one
		// waits on itself. Every element still subtracts its own terms in
		// ascending k, so the factor is the one a row-at-a-time loop gives.
		// The prefixes of explicit length j let the compiler drop the bounds
		// checks in the inner loops.
		lj := lrowj[:j]
		i := j + 1
		for ; i+3 < n; i += 4 {
			r0, r1, r2, r3 := ld[i*n:i*n+j+1], ld[(i+1)*n:(i+1)*n+j+1], ld[(i+2)*n:(i+2)*n+j+1], ld[(i+3)*n:(i+3)*n+j+1]
			p0, p1, p2, p3 := r0[:j], r1[:j], r2[:j], r3[:j]
			s0, s1, s2, s3 := r0[j], r1[j], r2[j], r3[j]
			for k, v := range lj {
				s0 -= p0[k] * v
				s1 -= p1[k] * v
				s2 -= p2[k] * v
				s3 -= p3[k] * v
			}
			r0[j], r1[j], r2[j], r3[j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
		for ; i < n; i++ {
			lrowi := ld[i*n : i*n+j+1]
			s := lrowi[j]
			for k, v := range lrowi[:j] {
				s -= v * lj[k]
			}
			lrowi[j] = s / dj
		}
	}
	return nil
}

// FactorInPlace factors the symmetric positive definite matrix a in place —
// the lower triangle of a is overwritten with L, no fresh storage — and
// points the receiver at it. On error the receiver is left unchanged (a's
// lower triangle is partially overwritten and must be reassembled before
// retrying). a must be square and is owned by the receiver afterwards.
//
// This is the refit primitive of gp's amortized hyperparameter inference:
// every slice-sampling step reassembles the kernel matrix into one reusable
// buffer and refactors it here, so the O(n³) work stays but the O(n²)
// allocation (and its GC pressure — hundreds of MB per MCMC run at n=300)
// disappears.
func (c *Cholesky) FactorInPlace(a *Dense) error {
	n, cols := a.Dims()
	if n != cols {
		return errors.New("mat: Cholesky of non-square matrix")
	}
	if err := factorLower(a); err != nil {
		return err
	}
	c.l = a
	return nil
}

// L returns the lower-triangular factor (not a copy).
func (c *Cholesky) L() *Dense { return c.l }

// Clone returns an independent copy of the factorization. Extending the
// clone leaves the original untouched, which is how GP.AppendBatch keeps a
// model consistent when a mid-batch extension fails.
func (c *Cholesky) Clone() *Cholesky { return &Cholesky{l: c.l.Clone()} }

// Extend appends one row/column to the factored matrix in O(n²) — the
// rank-1 border update that makes incremental GP training cheap. Given the
// bordered matrix
//
//	A' = [A  col]
//	     [colᵀ d ]
//
// the extended factor is
//
//	L' = [L    0  ]     l21 = L⁻¹·col (forward substitution)
//	     [l21ᵀ l22]     l22 = √(d - |l21|²)
//
// The forward substitution is the updatable triangular solve: it reuses the
// existing factor verbatim, so Extend costs O(n²) where a fresh NewCholesky
// of the bordered matrix costs O(n³). The recurrences are the same ones the
// full factorization would run for the last row, so the extended factor
// matches a from-scratch factorization to rounding error.
//
// col is the new off-diagonal column (length n) and diag the new diagonal
// element. On ErrNotPositiveDefinite the receiver is left unchanged.
func (c *Cholesky) Extend(col []float64, diag float64) error {
	n, _ := c.l.Dims()
	if len(col) != n {
		panic("mat: Cholesky.Extend column length mismatch")
	}
	l21 := c.SolveLowerVec(col)
	d := diag - Dot(l21, l21)
	if d <= 0 || math.IsNaN(d) {
		return ErrNotPositiveDefinite
	}
	nl := NewDense(n+1, n+1, nil)
	for i := 0; i < n; i++ {
		copy(nl.data[i*nl.cols:i*nl.cols+n], c.l.data[i*c.l.cols:i*c.l.cols+n])
	}
	copy(nl.data[n*nl.cols:n*nl.cols+n], l21)
	nl.data[n*nl.cols+n] = math.Sqrt(d)
	c.l = nl
	return nil
}

// SolveVec solves A·x = b in place-free fashion and returns x.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n, _ := c.l.Dims()
	return c.SolveVecInto(b, make([]float64, n))
}

// SolveVecInto solves A·x = b into dst and returns dst. dst may alias b:
// the forward substitution only reads b[i] before writing dst[i], and the
// back substitution rewrites dst from the tail using only entries it has
// already produced. No scratch vector is allocated, which is what keeps the
// per-step cost of gp's slice sampler allocation-free.
func (c *Cholesky) SolveVecInto(b, dst []float64) []float64 {
	n, _ := c.l.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveVecInto length mismatch")
	}
	ld := c.l.data
	// Forward substitution: L·y = b (y lands in dst).
	for i := 0; i < n; i++ {
		s := b[i]
		lrow := ld[i*n : i*n+i+1]
		for k := 0; k < i; k++ {
			s -= lrow[k] * dst[k]
		}
		dst[i] = s / lrow[i]
	}
	// Back substitution: Lᵀ·x = y (x overwrites y in dst).
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * dst[k]
		}
		dst[i] = s / ld[i*n+i]
	}
	return dst
}

// SolveLowerVec solves L·y = b (forward substitution only) and returns y.
// Used for computing predictive variances: v = L⁻¹·k*.
func (c *Cholesky) SolveLowerVec(b []float64) []float64 {
	n, _ := c.l.Dims()
	return c.SolveLowerVecInto(b, make([]float64, n))
}

// SolveLowerVecInto solves L·y = b into dst and returns dst. dst may alias
// b (the substitution only reads b[i] before writing dst[i]), which is what
// lets batch prediction overwrite cross-kernel rows in place instead of
// allocating a scratch vector per candidate.
func (c *Cholesky) SolveLowerVecInto(b, dst []float64) []float64 {
	n, _ := c.l.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveLowerVecInto length mismatch")
	}
	ld := c.l.data
	for i := 0; i < n; i++ {
		s := b[i]
		lrow := ld[i*n : i*n+i+1]
		for k := 0; k < i; k++ {
			s -= lrow[k] * dst[k]
		}
		dst[i] = s / lrow[i]
	}
	return dst
}

// SolveLowerBatch solves L·y = b in place for every length-n row of the
// row-major matrix b — the multi-right-hand-side form of SolveLowerVecInto
// that batch prediction runs over its cross-kernel rows. Four rows are
// solved per sweep of L: each L element is loaded once for four independent
// dependency chains, which is what a lone forward substitution (one
// subtract waiting on the last) cannot offer the processor. Every row still
// subtracts its own terms in ascending k, so each row's result is
// bit-identical to SolveLowerVecInto's wherever the row falls in b — the
// output cannot depend on how callers chunk rows across workers.
func (c *Cholesky) SolveLowerBatch(b []float64) {
	n, _ := c.l.Dims()
	if len(b)%n != 0 {
		panic("mat: Cholesky.SolveLowerBatch length is not a multiple of n")
	}
	ld := c.l.data
	for ; len(b) >= 4*n; b = b[4*n:] {
		b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
		for i := 0; i < n; i++ {
			lrow := ld[i*n : i*n+i+1]
			s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
			// Prefixes of explicit length i: lets the compiler drop the
			// p*[k] bounds checks in the inner loop.
			p0, p1, p2, p3 := b0[:i], b1[:i], b2[:i], b3[:i]
			for k, l := range lrow[:i] {
				s0 -= l * p0[k]
				s1 -= l * p1[k]
				s2 -= l * p2[k]
				s3 -= l * p3[k]
			}
			d := lrow[i]
			b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; len(b) > 0; b = b[n:] {
		c.SolveLowerVecInto(b[:n], b[:n])
	}
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	n, _ := c.l.Dims()
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}
