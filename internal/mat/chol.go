package mat

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ, as the lower triangle of an n×stride row-major
// matrix with stride ≥ n. A factor may hold more storage than n²: spare
// columns, and spare capacity behind the last row, are the reserve Extend
// writes the next row into without copying the factor. The storage belongs
// to the factor from FactorInPlace or Reserve until the next Reserve.
type Cholesky struct {
	l *Dense // n rows of stride l.cols ≥ n; the lower triangle of the leading n×n block is L
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
	n, st := l.rows, l.cols
	ld := l.data
	for j := 0; j < n; j++ {
		lrowj := ld[j*st : j*st+j+1]
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
			r0, r1, r2, r3 := ld[i*st:i*st+j+1], ld[(i+1)*st:(i+1)*st+j+1], ld[(i+2)*st:(i+2)*st+j+1], ld[(i+3)*st:(i+3)*st+j+1]
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
			lrowi := ld[i*st : i*st+j+1]
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
// retrying). a holds the matrix in its leading rows×rows block (columns past
// it are reserve, see Reserve) and is owned by the receiver afterwards.
//
// This is the refit primitive of gp's amortized hyperparameter inference:
// every slice-sampling step reassembles the kernel matrix into one reusable
// buffer and refactors it here, so the O(n³) work stays but the O(n²)
// allocation (and its GC pressure — hundreds of MB per MCMC run at n=300)
// disappears.
func (c *Cholesky) FactorInPlace(a *Dense) error {
	n, cols := a.Dims()
	if n > cols {
		return errors.New("mat: Cholesky of a matrix with fewer columns than rows")
	}
	if err := factorLower(a); err != nil {
		return err
	}
	c.l = a
	return nil
}

// Reserve gives up the current factor and returns the receiver's storage as
// an n×stride matrix for the caller to assemble the next matrix's lower
// triangle in and hand to FactorInPlace. A first reservation is exact; later
// ones keep the storage while its stride covers n and otherwise reallocate
// with half as much again, so a factor refitted at growing sizes, or extended
// after the fit, rarely allocates.
func (c *Cholesky) Reserve(n int) *Dense {
	if c.l == nil {
		c.l = &Dense{cols: n, data: make([]float64, 0, n*n)}
	} else if c.l.cols < n || cap(c.l.data) < n*c.l.cols {
		st := n + n/2
		c.l.cols, c.l.data = st, make([]float64, 0, st*st)
	}
	c.l.rows, c.l.data = n, c.l.data[:n*c.l.cols]
	return c.l
}

// L returns the factor's own storage (not a copy): an n×stride matrix whose
// leading n×n lower triangle is L. Entries above the diagonal and columns
// past n are unspecified.
func (c *Cholesky) L() *Dense { return c.l }

// Clone returns an independent copy of the factorization, reserve included.
// Extending the clone leaves the original untouched, which is how
// GP.AppendBatch keeps a model consistent when a mid-batch extension fails.
func (c *Cholesky) Clone() *Cholesky {
	d := append(make([]float64, 0, cap(c.l.data)), c.l.data...)
	return &Cholesky{l: &Dense{rows: c.l.rows, cols: c.l.cols, data: d}}
}

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
// element. The row is written into the reserve behind row n-1 (a factor
// without reserve is first copied to storage with half as much again) and
// joins the factor only once complete: on ErrNotPositiveDefinite the
// receiver — reserve included — is unchanged.
func (c *Cholesky) Extend(col []float64, diag float64) error {
	n, st := c.l.Dims()
	if len(col) != n {
		panic("mat: Cholesky.Extend column length mismatch")
	}
	data := c.l.data
	if n == st || cap(data) < (n+1)*st {
		st = n + 1 + (n+1)/2
		data = make([]float64, n*st, st*st)
		for i := 0; i < n; i++ {
			copy(data[i*st:i*st+i+1], c.l.RowView(i))
		}
	}
	data = data[:(n+1)*st]
	l21 := c.SolveLowerVecInto(col, data[n*st:n*st+n])
	d := diag - Dot(l21, l21)
	if d <= 0 || math.IsNaN(d) {
		return ErrNotPositiveDefinite
	}
	data[n*st+n] = math.Sqrt(d)
	c.l.rows, c.l.cols, c.l.data = n+1, st, data
	return nil
}

// SolveVecInto solves A·x = b into dst and returns dst. dst may alias b:
// the forward substitution only reads b[i] before writing dst[i], and the
// back substitution rewrites dst from the tail using only entries it has
// already produced. No scratch vector is allocated, which is what keeps the
// per-step cost of gp's slice sampler allocation-free.
func (c *Cholesky) SolveVecInto(b, dst []float64) []float64 {
	n, st := c.l.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveVecInto length mismatch")
	}
	ld := c.l.data
	// Forward substitution: L·y = b (y lands in dst).
	for i := 0; i < n; i++ {
		s := b[i]
		lrow := ld[i*st : i*st+i+1]
		for k := 0; k < i; k++ {
			s -= lrow[k] * dst[k]
		}
		dst[i] = s / lrow[i]
	}
	// Back substitution: Lᵀ·x = y (x overwrites y in dst).
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*st+i] * dst[k]
		}
		dst[i] = s / ld[i*st+i]
	}
	return dst
}

// SolveLowerVecInto solves L·y = b (forward substitution only, the
// predictive-variance solve v = L⁻¹·k*) into dst and returns dst. dst may
// alias b (the substitution only reads b[i] before writing dst[i]), which is
// what lets batch prediction overwrite cross-kernel rows in place instead of
// allocating a scratch vector per candidate.
func (c *Cholesky) SolveLowerVecInto(b, dst []float64) []float64 {
	n, st := c.l.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveLowerVecInto length mismatch")
	}
	ld := c.l.data
	for i := 0; i < n; i++ {
		s := b[i]
		lrow := ld[i*st : i*st+i+1]
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
	n, st := c.l.Dims()
	if len(b)%n != 0 {
		panic("mat: Cholesky.SolveLowerBatch length is not a multiple of n")
	}
	ld := c.l.data
	for ; len(b) >= 4*n; b = b[4*n:] {
		b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
		for i := 0; i < n; i++ {
			lrow := ld[i*st : i*st+i+1]
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
