// Package kpca implements Kernel Principal Component Analysis — the
// configuration-parameter extraction (CPE) step of LOCAT's IICP (paper
// Section 3.3.2). Three kernels are provided, matching the paper's Figure 6
// comparison: Gaussian (the one LOCAT adopts), perceptron and polynomial.
//
// Fit centers the kernel Gram matrix in feature space, eigendecomposes it,
// and keeps the leading eigenvalues by a relative-eigenvalue rule. CPE is
// the count of kept eigenvalues: IICP reads nothing else, so Fit builds no
// projection model and nothing projects onto the components.
package kpca

import (
	"errors"
	"fmt"
	"math"

	"locat/internal/mat"
)

// KernelKind selects the KPCA kernel.
type KernelKind int

const (
	// Gaussian is k(a,b) = exp(-γ·|a-b|²) — the kernel the paper selects
	// (Figure 6).
	Gaussian KernelKind = iota
	// Perceptron is the (conditionally positive definite) kernel
	// k(a,b) = -|a-b|.
	Perceptron
	// Polynomial is k(a,b) = (aᵀb + 1)³.
	Polynomial
)

// String returns the kernel name.
func (k KernelKind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Perceptron:
		return "perceptron"
	case Polynomial:
		return "polynomial"
	}
	return "unknown"
}

// Kernel is a configured KPCA kernel.
type Kernel struct {
	Kind KernelKind
	// Gamma is the Gaussian bandwidth; ≤0 selects 1/d (d = input dim).
	Gamma float64
	// Degree is the polynomial degree; ≤0 selects 3.
	Degree int
}

// Eval computes k(a, b).
func (k Kernel) Eval(a, b []float64) float64 {
	switch k.Kind {
	case Gaussian:
		g := k.Gamma
		if g <= 0 {
			g = 1 / float64(len(a))
		}
		var d2 float64
		for i := range a {
			d := a[i] - b[i]
			d2 += d * d
		}
		return math.Exp(-g * d2)
	case Perceptron:
		var d2 float64
		for i := range a {
			d := a[i] - b[i]
			d2 += d * d
		}
		return -math.Sqrt(d2)
	case Polynomial:
		deg := k.Degree
		if deg <= 0 {
			deg = 3
		}
		var dot float64
		for i := range a {
			dot += a[i] * b[i]
		}
		return math.Pow(dot+1, float64(deg))
	}
	panic(fmt.Sprintf("kpca: unknown kernel %d", k.Kind))
}

// Options control component selection.
type Options struct {
	// MinEigenFrac keeps components whose eigenvalue is at least this
	// fraction of the total positive spectrum (default 0.02). The relative
	// rule makes the kept-component count stabilize as samples grow, which
	// is what the paper observes when calibrating N_IICP (Figure 9).
	MinEigenFrac float64
}

// Fit computes kernel PCA over the rows of x and returns the kept
// eigenvalues in descending order.
func Fit(x [][]float64, kernel Kernel, opts Options) ([]float64, error) {
	n := len(x)
	if n < 2 {
		return nil, errors.New("kpca: need at least 2 samples")
	}
	d := len(x[0])
	for i := range x {
		if len(x[i]) != d {
			return nil, fmt.Errorf("kpca: row %d has %d features, want %d", i, len(x[i]), d)
		}
	}
	if opts.MinEigenFrac <= 0 {
		opts.MinEigenFrac = 0.02
	}

	// Uncentered Gram matrix, assembled row-parallel. The lower triangle is
	// ragged (row i holds i+1 entries), so each range unit processes the
	// complementary row pair (i, n-1-i) to keep worker loads even; writes
	// are disjoint per pair, so the result is deterministic.
	k := mat.NewDense(n, n, nil)
	half := (n + 1) / 2
	mat.ParRange(half, 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			rows := [2]int{u, n - 1 - u}
			for ri, i := range rows {
				if ri == 1 && i == rows[0] { // odd n: the middle row pairs with itself
					continue
				}
				for j := 0; j <= i; j++ {
					v := kernel.Eval(x[i], x[j])
					k.Set(i, j, v)
					k.Set(j, i, v)
				}
			}
		}
	})
	// Row means and grand mean for double centering:
	// K̃ = K - 1ₙK - K1ₙ + 1ₙK1ₙ.
	rowMean := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += k.At(i, j)
		}
		rowMean[i] = s / float64(n)
	}
	var allMean float64
	for _, rm := range rowMean {
		allMean += rm
	}
	allMean /= float64(n)
	// Double-center in place — the Gram matrix itself becomes K̃, dropping
	// the n×n copy the old path allocated.
	mat.ParRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := k.RowView(i)
			for j := range row {
				row[j] -= rowMean[i] + rowMean[j] - allMean
			}
		}
	})

	eig, err := mat.SymEigen(k)
	if err != nil {
		return nil, err
	}

	// Total positive spectrum.
	var total float64
	for _, l := range eig.Values {
		if l > 0 {
			total += l
		}
	}
	if total <= 0 {
		return nil, errors.New("kpca: degenerate kernel matrix (no positive eigenvalues)")
	}

	var kept []float64
	for _, l := range eig.Values {
		if l <= 0 {
			continue
		}
		if l/total < opts.MinEigenFrac {
			continue
		}
		kept = append(kept, l)
	}
	if len(kept) == 0 {
		kept = append(kept, eig.Values[0])
	}
	return kept, nil
}
