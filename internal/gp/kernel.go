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
// comes back, and only AppendBatch writes a fitted model. Training rows are
// shared between models and never written. A
// PredictWorkspace owns the rows Inputs hands out (valid until the next
// Inputs), a batch's outputs (valid until its next use) and the model's rows
// feature-major (Columns, reloaded by every batch), a FitWorkspace one
// chain's kernel matrix, forward solve, correlation cache and generator;
// neither may be shared by concurrent calls. A tuning session reserves once:
// core's session takes a Workspace and resets its reservation to its largest
// training set, phase 2's (Reset); every resample of both BO runs and both
// DAGP selections rebuilds the TrainSet in that storage and refits the
// workspace's models, whose factors, α and row lists TrainSet.Fit reserves at
// the set's capacity, so no later resample or append regrows them. One
// session at a time holds it, one fit after another; what it hands out is
// valid until its next use, and when the session ends the workspace, storage
// and all, goes on to the next session, so nothing may alias it after that.
// The factor is mat.Cholesky's
// U = Lᵀ, so the kernel matrix is assembled, and the distance and
// correlation caches are kept, as strict upper triangles plus the diagonal:
// row i holds columns i..n-1, and the factorization reads nothing below it.
//
// Kernel rows: KernelMeans' cross-kernel rows and a TrainSet's fresh
// exponentials map squared distances to σ_f²·exp(-d²/2ℓ²) through kernelRow.
// KernelMeans maps a whole chunk with one call, so a chunk has one tail. On
// amd64 kernelRow takes four values per instruction (kernel_amd64.s), each
// lane running the operations of math.Exp's FMA path
// ($GOROOT/src/math/exp_amd64.s) in its order: the sign flip and division, k
// through the int32 round trip, the two-step reduction by ln 2, ×1/16, the
// seven-step polynomial, the squarings as r·(r+2), the final FMA, ×2^k, then
// ×σ_f². IEEE VDIVPD, VMULPD, VADDPD and the FMAs round each lane as their
// scalar forms round, so every value is σ_f²·math.Exp(-d²/2ℓ²) bit for bit.
// The vector path is decided once at start-up: mat.HasAVX2FMA (CPUID and
// XGETBV) must show AVX2, FMA and YMM state, and a fixed probe must match
// math.Exp bit for bit, which fails where math.Exp takes its SSE path
// (GODEBUG=cpu.fma=off). A row's last len%4 values take the lanes on a
// zero-padded block (kernelTail). Two cases go through math.Exp itself: a
// block, padded or not, with an argument outside [-700, 700] or a NaN
// (math.Exp's underflow, denormal and overflow branches live out there), and
// every row where the vector path is off or the architecture is not amd64. A
// TrainSet's rescale by σ_f² (scale) is one VMULPD per four values.
//
// Distances: the cross pass from candidates to training rows reads a
// feature-major copy of the rows (Columns), which the caller's workspace
// loads once per batch or round, so a model is never written and concurrent
// passes over it are race-free. Where mat.HasAVX2FMA holds, kernel_amd64.s
// gives each lane one training row, eight and then four rows at a time, the
// rest one by one: per feature a broadcast of the candidate's value, then
// VSUBPD, VMULPD and VADDPD, each rounded on its own and never fused, into
// a sum that starts at zero. Those are sqDist's operations in its order, so
// every distance is sqDist's bit for bit; elsewhere distancesGo runs the
// same sums in Go, four rows per sweep of the features.
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
			if l := len(dst); l == 0 || l < 4 && kernelTail(dst, d2, s2, tl2) {
				return
			}
		}
		// The block kernelRow4 stopped at, or the tail of the row.
		m := min(4, len(dst))
		for j, v := range d2[:m] {
			dst[j] = s2 * math.Exp(-v/tl2)
		}
		dst, d2 = dst[m:], d2[m:]
	}
}

// kernelTail maps a row's last len(dst) < 4 values through kernelRow4 on a
// block padded with zeros, whose lanes are in range, and reports whether the
// lanes took it: an argument out of range leaves it to math.Exp.
func kernelTail(dst, d2 []float64, s2, tl2 float64) bool {
	var in, out [4]float64
	copy(in[:], d2)
	if kernelRow4(out[:], in[:], s2, tl2) < 4 {
		return false
	}
	copy(dst, out[:])
	return true
}

// scale writes s·src[j] into dst[j] for every j < len(dst): scaleGo, or the
// lane kernel kernel_amd64.go puts here at start-up. Only tests change it.
var scale = scaleGo

func scaleGo(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for j, c := range src {
		dst[j] = s * c
	}
}

// sqDist is |a-b|², summed in feature order from zero, each square rounded
// on its own. Every distance in the package — Predict, Append, TrainSet's
// cache and, through distances, the batched cross pass — takes these
// operations in this order, which is what keeps those paths bit-identical to
// each other.
func sqDist(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += float64(d * d)
	}
	return d2
}

// distances writes into d2[j] the squared distance from x to row j of the
// feature-major t (feature f of row j at t[f*len(d2)+j]): distancesGo, or
// the lane kernel kernel_amd64.go puts here at start-up. Only tests change
// it.
var distances = distancesGo

// distancesGo takes four rows per sweep of the features, four independent
// sums where sqDist has one chain of dependent additions, then the rest one
// at a time.
func distancesGo(t, x, d2 []float64) {
	n, j := len(d2), 0
	for ; j+3 < n; j += 4 {
		var s0, s1, s2, s3 float64
		k := j
		for _, v := range x {
			c := t[k : k+4 : k+4]
			e0, e1, e2, e3 := c[0]-v, c[1]-v, c[2]-v, c[3]-v
			s0 += float64(e0 * e0)
			s1 += float64(e1 * e1)
			s2 += float64(e2 * e2)
			s3 += float64(e3 * e3)
			k += n
		}
		d2[j], d2[j+1], d2[j+2], d2[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		var s float64
		for f, v := range x {
			e := t[f*n+j] - v
			s += float64(e * e)
		}
		d2[j] = s
	}
}

// The constant logarithms of the evidence and the prior, taken once rather
// than at every posterior evaluation.
var (
	log2Pi        = math.Log(2 * math.Pi)
	halfLog2Pi    = 0.5 * log2Pi
	priorLogLen   = math.Log(0.4)
	priorLogNoise = math.Log(0.1)
)

// logPrior is a weakly-informative Gaussian prior over the log
// hyperparameters, keeping the slice sampler in a numerically sane region.
func logPrior(h Hyper) float64 {
	lp := 0.0
	lp += logNormPDF(h.LogLen, priorLogLen)
	lp += logNormPDF(h.LogSignal, 0)
	lp += logNormPDF(h.LogNoise, priorLogNoise)
	return lp
}

// logNormPDF is the log density of N(mu, 1) at x. At σ = 1 the general
// form's division by σ and subtraction of log σ = 0 change no bit, so the
// value is that form's exactly (TestLogPriorMatchesGeneralForm).
func logNormPDF(x, mu float64) float64 {
	d := x - mu
	return -0.5*d*d - halfLog2Pi
}
