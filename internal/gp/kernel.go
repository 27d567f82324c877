// Package gp implements Gaussian-process regression with marginal-likelihood
// hyperparameter inference — the surrogate model underlying LOCAT's
// datasize-aware Bayesian optimization (paper Section 3.4, equations 8–10).
//
// The package provides:
//   - a squared-exponential (Gaussian/RBF) covariance kernel with signal
//     variance, length-scale and observation-noise hyperparameters;
//   - exact GP regression via Cholesky factorization (posterior mean and
//     variance, equation 10);
//   - the log marginal likelihood and a univariate slice sampler over the
//     log-hyperparameters, which powers the EI-MCMC acquisition of
//     Snoek et al. used by the paper.
//
// Buffers: a GP owns its factor, α and kernel-column scratch and grows them
// in place; handing a GP to TrainSet.Fit gives all of it to the model that
// comes back. Training rows are shared between models and never written. A
// PredictWorkspace owns the rows Inputs hands out (valid until the next
// Inputs) and a batch's outputs (valid until its next use), a FitWorkspace
// one chain's kernel matrix, correlation cache and generator; neither may be
// shared by concurrent calls. The factor is mat.Cholesky's U = Lᵀ, so the
// kernel matrix is assembled, and the distance and correlation caches are
// kept, as strict upper triangles plus the diagonal: row i holds columns
// i..n-1, and the factorization reads nothing below it.
//
// Kernel rows: KernelMeans' cross-kernel rows and a TrainSet's fresh
// exponentials map squared distances to σ_f²·exp(-d²/2ℓ²) through kernelRow.
// On amd64 it takes four values per instruction (kernel_amd64.s), each lane
// running the operations of math.Exp's FMA path
// ($GOROOT/src/math/exp_amd64.s) in its order: the sign flip and division, k
// through the int32 round trip, the two-step reduction by ln 2, ×1/16, the
// seven-step polynomial, the squarings as r·(r+2), the final FMA, ×2^k, then
// ×σ_f². IEEE VDIVPD, VMULPD, VADDPD and the FMAs round each lane as their
// scalar forms round, so every value is σ_f²·math.Exp(-d²/2ℓ²) bit for bit.
// The vector path is decided once at start-up: mat.HasAVX2FMA (CPUID and
// XGETBV) must show AVX2, FMA and YMM state, and a fixed probe must match
// math.Exp bit for bit, which fails where math.Exp takes its SSE path
// (GODEBUG=cpu.fma=off). Three cases go through math.Exp itself: a block of four with an argument outside
// [-700, 700] or a NaN (math.Exp's underflow, denormal and overflow branches
// live out there), a row's last len%4 values, and every row where the vector
// path is off or the architecture is not amd64.
package gp

import "math"

// Hyper are the log-scale hyperparameters of the squared-exponential kernel
// plus the Gaussian observation-noise variance.
type Hyper struct {
	// LogLen is the log length-scale ℓ (inputs are expected in [0,1]).
	LogLen float64
	// LogSignal is the log signal standard deviation σ_f.
	LogSignal float64
	// LogNoise is the log noise standard deviation σ_n.
	LogNoise float64
}

// DefaultHyper returns a reasonable starting point for unit-cube inputs and
// standardized outputs.
func DefaultHyper() Hyper {
	return Hyper{LogLen: math.Log(0.4), LogSignal: 0, LogNoise: math.Log(0.1)}
}

// Len returns the length-scale ℓ.
func (h Hyper) Len() float64 { return math.Exp(h.LogLen) }

// Signal2 returns the signal variance σ_f².
func (h Hyper) Signal2() float64 { return math.Exp(2 * h.LogSignal) }

// Noise2 returns the noise variance σ_n².
func (h Hyper) Noise2() float64 { return math.Exp(2 * h.LogNoise) }

// seKernel is the squared-exponential covariance
// k(a,b) = σ_f² · exp(-|a-b|² / (2ℓ²)) with its two hyperparameter-dependent
// constants evaluated once per Hyper, so a kernel value costs one exp — the
// one that depends on the pair — instead of three.
type seKernel struct {
	s2  float64 // σ_f²
	tl2 float64 // 2ℓ²
}

func (h Hyper) kernel() seKernel {
	l := h.Len()
	return seKernel{s2: h.Signal2(), tl2: 2 * l * l}
}

// of returns the covariance of two points at squared distance d2. of(0) is
// exactly σ_f² (exp(-0) = 1).
func (k seKernel) of(d2 float64) float64 { return k.s2 * math.Exp(-d2/k.tl2) }

// kernelRow writes s2·exp(-d2[j]/tl2) into dst[j] for every j < len(dst), as
// seKernel.of computes it, bit for bit (see "Kernel rows" in the package
// doc). dst and d2 may be the same slice.
func kernelRow(dst, d2 []float64, s2, tl2 float64) {
	d2 = d2[:len(dst)]
	for len(dst) > 0 {
		if useVecKernel {
			n := kernelRow4(dst, d2, s2, tl2)
			dst, d2 = dst[n:], d2[n:]
		}
		// The block kernelRow4 stopped at, or the tail of the row.
		m := min(4, len(dst))
		for j, v := range d2[:m] {
			dst[j] = s2 * math.Exp(-v/tl2)
		}
		dst, d2 = dst[m:], d2[m:]
	}
}

// sqDist is |a-b|², summed in feature order. Every distance in the package
// — Predict, Append, the batched cross pass, TrainSet's cache — goes through
// this one loop (sqDist4 four at a time), which is what keeps those paths
// bit-identical to each other.
func sqDist(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return d2
}

// sqDist4 is sqDist from each of four points to b in one sweep of the
// features: four independent sums where sqDist has one chain of dependent
// additions. Each sum adds its terms in feature order, so every result is
// sqDist's, bit for bit.
func sqDist4(a0, a1, a2, a3, b []float64) (d0, d1, d2, d3 float64) {
	a1, a2, a3, b = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)], b[:len(a0)]
	for i := range a0 {
		v := b[i]
		e0, e1, e2, e3 := a0[i]-v, a1[i]-v, a2[i]-v, a3[i]-v
		d0 += e0 * e0
		d1 += e1 * e1
		d2 += e2 * e2
		d3 += e3 * e3
	}
	return d0, d1, d2, d3
}

// logPrior is a weakly-informative Gaussian prior over the log
// hyperparameters, keeping the slice sampler in a numerically sane region.
func logPrior(h Hyper) float64 {
	lp := 0.0
	lp += logNormPDF(h.LogLen, math.Log(0.4), 1.0)
	lp += logNormPDF(h.LogSignal, 0, 1.0)
	lp += logNormPDF(h.LogNoise, math.Log(0.1), 1.0)
	return lp
}

func logNormPDF(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return -0.5*d*d - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}
