package mat

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the factor of a symmetric positive definite matrix
// A = L·Lᵀ as U = Lᵀ: the upper triangle of an n×stride row-major matrix
// with stride ≥ n, row i holding U[i][i:n] (which is L's column i). Entries
// below the diagonal are not part of the factor. A factor may hold more
// storage than n²: spare columns, and spare capacity behind the last row, are
// the reserve Extend writes the next column into without copying the factor
// (Reserve's capacity sizes it). The storage belongs to the factor from
// FactorInPlace or Reserve until the next Reserve.
//
// The layout is chosen for the factorization, which is most of the tuner's
// own CPU time (gp's slice sampler refactors the kernel matrix at every
// posterior evaluation). In it, row j of U is one contiguous vector update,
//
//	U[j][j:] = (A[j][j:] − Σ_{k<j} U[k][j]·U[k][j:]) / U[j][j]   (k ascending)
//
// where the diagonal is the square root of the same update's first element.
// Where the processor has AVX2 and FMA and the OS saves the YMM registers
// (HasAVX2FMA, CPUID and XGETBV, decided once at start-up), chol_amd64.s
// runs the update over 16, 4 and then single columns, keeping them in
// registers for the whole k loop: per k a broadcast of U[k][j], one VMULPD
// and one VSUBPD, never a fused multiply-add, then one VDIVPD by the pivot's
// root. The forward solves, SolveLowerBatch and SolveLowerVecInto, run one
// lane kernel over one to four right-hand sides at a time, along the rows of
// U. On other hosts and architectures factorGo and solveLowerGo run the same
// recurrences in Go. Either way every element subtracts its own products,
// each rounded once, in ascending k, and is divided last: the operations,
// and so the roundings, of the textbook dot-product loop
// s −= L[i][k]·L[j][k] … s/L[j][j] over a row-major L. The factor and the
// solves are therefore the same bit for bit on both paths, and the same as
// that loop's (TestCholeskyLanesMatchPortable, FuzzCholeskyLanes,
// TestSolveLowerMatchesDotForm).
type Cholesky struct {
	u *Dense // n rows of stride u.cols ≥ n; the upper triangle of the leading n×n block is U = Lᵀ
}

// NewCholesky factors the symmetric positive definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	n, c := a.Dims()
	if n != c {
		return nil, errors.New("mat: Cholesky of non-square matrix")
	}
	u := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.data[i*n+j] = a.data[j*a.cols+i]
		}
	}
	if err := factorUpper(u); err != nil {
		return nil, err
	}
	return &Cholesky{u: u}, nil
}

// factor and solveLower are this host's factorization and forward solve of
// one to four rows: the Go paths below, which chol_amd64.go replaces with the
// lane kernels at start-up where the processor has them. Only tests change
// them.
var factor, solveLower = factorGo, solveLowerGo

// factorUpper runs the row recurrences in place over the upper triangle of
// u: on entry it holds A, on exit U. Row j reads rows k < j, which already
// hold U, and its own entries, which still hold A, so the factor is the one
// computed into separate storage. Entries below the diagonal are never
// touched.
func factorUpper(u *Dense) error {
	if factor(u.data, u.cols, u.rows) >= 0 {
		return ErrNotPositiveDefinite
	}
	return nil
}

// factorGo factors the upper triangle of u (stride st, n rows) in place and
// returns the row whose pivot is not positive, or -1. It is the lane
// kernel's recurrence in Go, two rows at a time: rows j and j+1 take the
// rows k < j above them four at a time (subRows4); then row j is finished,
// row j+1 subtracts row j's share, and is finished in turn. Every element
// still subtracts its products one after another in ascending k. The
// explicit conversions keep each product rounded on its own where the
// compiler would fuse it into the subtraction (arm64).
func factorGo(u []float64, st, n int) int {
	j := n % 2 // an odd n finishes row 0, which subtracts nothing, on its own
	if j == 1 && !finishRow(u[:n]) {
		return 0
	}
	for ; j < n; j += 2 {
		r0, r1 := u[j*st+j:j*st+n], u[(j+1)*st+j+1:(j+1)*st+n]
		d, t0 := r0[0], r0[1:] // row j's pivot, and its columns j+1.. beside row j+1's
		k := 0
		for ; k+3 < j; k += 4 {
			p := u[k*st+j:]
			v0, v1, v2, v3 := p[0], p[st], p[2*st], p[3*st]
			d -= float64(v0 * v0)
			d -= float64(v1 * v1)
			d -= float64(v2 * v2)
			d -= float64(v3 * v3)
			q := p[1:]
			subRows4(t0, r1, q, st, v0, v1, v2, v3, q[0], q[st], q[2*st], q[3*st])
		}
		for ; k < j; k++ {
			p := u[k*st+j : k*st+n]
			v, w, q := p[0], p[1], p[1:]
			d -= float64(v * v)
			a0, a1 := t0[:len(q)], r1[:len(q)]
			for c, x := range q {
				a0[c] -= float64(x * v)
				a1[c] -= float64(x * w)
			}
		}
		if r0[0] = d; !finishRow(r0) {
			return j
		}
		w, a1 := t0[0], r1[:len(t0)]
		for c, x := range t0 {
			a1[c] -= float64(x * w)
		}
		if !finishRow(r1) {
			return j + 1
		}
	}
	return -1
}

// subRows4 subtracts v_m·P_m from a0 and w_m·P_m from a1 for the four
// rows P_m of p (stride st, m ascending), over a0's length: each entry of
// P loaded once for eight subtractions. It is a function of its own so that
// the compiler keeps its loop in registers, which factorGo's many live
// slices would otherwise spill.
func subRows4(a0, a1, p []float64, st int, v0, v1, v2, v3, w0, w1, w2, w3 float64) {
	q0 := p[:len(a0)]
	q1, q2, q3 := p[st:][:len(q0)], p[2*st:][:len(q0)], p[3*st:][:len(q0)]
	a1 = a1[:len(q0)]
	for c, x := range q0 {
		s, t := a0[c], a1[c]
		s -= float64(x * v0)
		t -= float64(x * w0)
		x = q1[c]
		s -= float64(x * v1)
		t -= float64(x * w1)
		x = q2[c]
		s -= float64(x * v2)
		t -= float64(x * w2)
		x = q3[c]
		s -= float64(x * v3)
		t -= float64(x * w3)
		a0[c], a1[c] = s, t
	}
}

// finishRow replaces row's first entry, a pivot, by its root and divides the
// rest of the row by that root, or reports false where the pivot is not
// positive.
func finishRow(row []float64) bool {
	d := row[0]
	if d <= 0 || math.IsNaN(d) {
		return false
	}
	dj := math.Sqrt(d)
	row[0] = dj
	for c := 1; c < len(row); c++ {
		row[c] /= dj
	}
	return true
}

// FactorInPlace factors the symmetric positive definite matrix a in place —
// the upper triangle of a is overwritten with U = Lᵀ, no fresh storage — and
// points the receiver at it. On error the receiver is left unchanged (a's
// upper triangle is partially overwritten and must be reassembled before
// retrying). a holds the matrix in its leading rows×rows block (columns past
// it are reserve, see Reserve) and is owned by the receiver afterwards. Only
// the upper triangle of that block is read.
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
	if err := factorUpper(a); err != nil {
		return err
	}
	c.u = a
	return nil
}

// Reserve gives up the current factor and returns the receiver's storage as
// an n×stride matrix for the caller to assemble the next matrix's upper
// triangle in and hand to FactorInPlace. capacity is the largest size the
// factor's owner will refit or Extend it to (gp: its TrainSet's capacity):
// a reservation that must allocate sizes stride and rows for it, so no
// later Reserve or Extend up to it allocates or copies. Past it, storage
// is reallocated with half as much again.
func (c *Cholesky) Reserve(n, capacity int) *Dense {
	if c.u == nil {
		c.u = &Dense{}
	}
	if c.u.cols < n || cap(c.u.data) < n*c.u.cols {
		st := max(n, capacity)
		if c.u.data != nil {
			st = max(st, n+n/2)
		}
		c.u.cols, c.u.data = st, make([]float64, 0, st*st)
	}
	c.u.rows, c.u.data = n, c.u.data[:n*c.u.cols]
	return c.u
}

// Truncate keeps the factor of the leading n×n block, which Extend never
// writes: how GP.AppendBatch leaves a model unchanged when a batch fails
// part way.
func (c *Cholesky) Truncate(n int) { c.u.rows, c.u.data = n, c.u.data[:n*c.u.cols] }

// Clone returns an independent copy of the factorization, reserve included.
// Extending the clone leaves the original untouched.
func (c *Cholesky) Clone() *Cholesky {
	d := append(make([]float64, 0, cap(c.u.data)), c.u.data...)
	return &Cholesky{u: &Dense{rows: c.u.rows, cols: c.u.cols, data: d}}
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
//	U' = [U  u12]     u12 = L⁻¹·col (forward substitution)
//	     [0  u22]     u22 = √(d - |u12|²)
//
// The forward substitution is the updatable triangular solve: it reuses the
// existing factor verbatim, so Extend costs O(n²) where a fresh NewCholesky
// of the bordered matrix costs O(n³). u12 is what the full factorization
// computes for the new column, bit for bit (the same subtractions in the
// same order); u22 sums |u12|² in Dot's order before subtracting, so its
// square matches the factorization's pivot to a few ulp of d.
//
// col is the new off-diagonal column (length n) and diag the new diagonal
// element. u12 is solved into the spare row n behind the factor (a factor
// without reserve is first copied to storage with half as much again), and
// joins it as column n only once u22 is known: on ErrNotPositiveDefinite the
// receiver's factor is unchanged, and so are its size, stride and reserve.
func (c *Cholesky) Extend(col []float64, diag float64) error {
	n, st := c.u.Dims()
	if len(col) != n {
		panic("mat: Cholesky.Extend column length mismatch")
	}
	data := c.u.data
	if n == st || cap(data) < (n+1)*st {
		st = n + 1 + (n+1)/2
		data = make([]float64, n*st, st*st)
		for i := 0; i < n; i++ {
			copy(data[i*st+i:i*st+n], c.u.RowView(i)[i:n])
		}
	}
	data = data[:(n+1)*st]
	u12 := c.SolveLowerVecInto(col, data[n*st:n*st+n])
	d := diag - Dot(u12, u12)
	if d <= 0 || math.IsNaN(d) {
		return ErrNotPositiveDefinite
	}
	for k, v := range u12 {
		data[k*st+n] = v
	}
	data[n*st+n] = math.Sqrt(d)
	c.u.rows, c.u.cols, c.u.data = n+1, st, data
	return nil
}

// SolveVecInto solves A·x = b into dst and returns dst. dst may alias b:
// the forward substitution copies b into dst before it starts, and the
// back substitution rewrites dst from the tail using only entries it has
// already produced. No scratch vector is allocated, so a GP solves for its
// α in the buffer it keeps, once per fit or append.
func (c *Cholesky) SolveVecInto(b, dst []float64) []float64 {
	n, st := c.u.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveVecInto length mismatch")
	}
	// Forward substitution: L·y = b (y lands in dst).
	c.SolveLowerVecInto(b, dst)
	// Back substitution: U·x = y (x overwrites y in dst), each a dot product
	// along a row of U.
	ud := c.u.data
	for i := n - 1; i >= 0; i-- {
		urow := ud[i*st+i : i*st+n]
		x := dst[i:n]
		s := x[0]
		for k, u := range urow[1:] {
			s -= u * x[k+1]
		}
		dst[i] = s / urow[0]
	}
	return dst
}

// SolveLowerVecInto solves L·y = b (forward substitution only, the
// predictive-variance solve v = L⁻¹·k*) into dst and returns dst. It is the
// one-row case of SolveLowerBatch's recurrence: b is copied into dst, and
// once y[k] is known, U[k][k+1:]·y[k] is subtracted from the rest of dst
// along row k of U, contiguous, in lanes where the processor has them. Every
// entry still subtracts its own products in ascending k, each rounded once,
// and is divided last, so y is the dot-product solve's, bit for bit. dst may
// alias b, which is what lets batch prediction overwrite cross-kernel rows in
// place instead of allocating a scratch vector per candidate.
func (c *Cholesky) SolveLowerVecInto(b, dst []float64) []float64 {
	n, st := c.u.Dims()
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky.SolveLowerVecInto length mismatch")
	}
	if n > 0 {
		copy(dst, b)
		solveLower(c.u.data, st, n, dst)
	}
	return dst
}

// SolveLowerBatch solves L·y = b in place for every length-n row of the
// row-major matrix b — the multi-right-hand-side form of SolveLowerVecInto
// that batch prediction runs over its cross-kernel rows. Rows go four at a
// time, and the last one to three together (solveLower): once y_r[k] is
// known it is subtracted from the rest of its row along row k of U, every
// row per load of U. Every row still subtracts its own terms in ascending
// k, so each row's result is bit-identical to SolveLowerVecInto's wherever
// the row falls in b — the output cannot depend on how callers chunk rows
// across workers. It keeps no scratch, so concurrent calls on one factor
// are safe.
func (c *Cholesky) SolveLowerBatch(b []float64) {
	n, st := c.u.Dims()
	if len(b)%n != 0 {
		panic("mat: Cholesky.SolveLowerBatch length is not a multiple of n")
	}
	for len(b) > 0 {
		r := min(4*n, len(b))
		solveLower(c.u.data, st, n, b[:r])
		b = b[r:]
	}
}

// solveLowerGo solves L·y = b in place for the one to four length-n rows of
// b, L being the transpose of the upper triangle of u (stride st): four rows
// through solveLower4Go, fewer one at a time in the same way, two rows of U
// per sweep.
func solveLowerGo(u []float64, st, n int, b []float64) {
	if len(b) == 4*n {
		solveLower4Go(u, st, n, b)
		return
	}
	for ; len(b) > 0; b = b[n:] {
		k := 0
		for ; k+1 < n; k += 2 {
			p, q := u[k*st+k:k*st+n], u[(k+1)*st+k+1:(k+1)*st+n]
			x := b[k] / p[0]
			y := (b[k+1] - float64(p[1]*x)) / q[0]
			b[k], b[k+1] = x, y
			subRow2(b[k+2:n], p[2:], q[1:], x, y)
		}
		if k < n {
			b[k] /= u[k*st+k]
		}
	}
}

// subRow2 subtracts p·x and then q·y from a, over a's length, each product
// rounded on its own, in a leaf function for the reason subRows4 is.
func subRow2(a, p, q []float64, x, y float64) {
	p, q = p[:len(a)], q[:len(a)]
	for c, v := range p {
		a[c] = a[c] - float64(v*x) - float64(q[c]*y)
	}
}

// solveLower4Go solves L·y = b in place for the four length-n rows of b, L
// being the transpose of the upper triangle of u (stride st). It takes the
// rows of U two at a time: y_r[k] and y_r[k+1] are solved, then subRows2
// subtracts both from the rest of each row. The explicit conversions keep
// each product rounded on its own (arm64 would fuse it).
func solveLower4Go(u []float64, st, n int, b []float64) {
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	k := 0
	for ; k+1 < n; k += 2 {
		p, q := u[k*st+k:k*st+n], u[(k+1)*st+k+1:(k+1)*st+n]
		d, e, l := p[0], q[0], p[1]
		x0, x1, x2, x3 := b0[k]/d, b1[k]/d, b2[k]/d, b3[k]/d
		y0, y1 := (b0[k+1]-float64(l*x0))/e, (b1[k+1]-float64(l*x1))/e
		y2, y3 := (b2[k+1]-float64(l*x2))/e, (b3[k+1]-float64(l*x3))/e
		b0[k], b1[k], b2[k], b3[k] = x0, x1, x2, x3
		b0[k+1], b1[k+1], b2[k+1], b3[k+1] = y0, y1, y2, y3
		subRows2(b[k+2:], n, p[2:], q[1:], x0, x1, x2, x3, y0, y1, y2, y3)
	}
	if k < n {
		d := u[k*st+k]
		b0[k], b1[k], b2[k], b3[k] = b0[k]/d, b1[k]/d, b2[k]/d, b3[k]/d
	}
}

// subRows2 subtracts p·x_r and then q·y_r from the four rows r of b (stride
// n), over p's length: each pair of U's entries loaded once for eight
// subtractions, in a function of its own for the reason subRows4 is.
func subRows2(b []float64, n int, p, q []float64, x0, x1, x2, x3, y0, y1, y2, y3 float64) {
	q = q[:len(p)]
	c0, c1, c2, c3 := b[:len(p)], b[n:][:len(p)], b[2*n:][:len(p)], b[3*n:][:len(p)]
	for c, v := range p {
		w := q[c]
		c0[c] = c0[c] - float64(v*x0) - float64(w*y0)
		c1[c] = c1[c] - float64(v*x1) - float64(w*y1)
		c2[c] = c2[c] - float64(v*x2) - float64(w*y2)
		c3[c] = c3[c] - float64(v*x3) - float64(w*y3)
	}
}

// LogDet returns log|A| = 2·Σ log U_ii, the logs added in ascending i.
func (c *Cholesky) LogDet() float64 {
	n, st := c.u.Dims()
	d := c.u.data
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(d[i*st+i])
	}
	return 2 * s
}
