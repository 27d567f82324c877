package ml

import (
	"math"
	"sort"

	"locat/internal/stat"
)

// The SVR's training constants: the insensitivity tube half-width on
// standardized targets, the slack weight, the epoch count and the initial
// step size.
const (
	svrEpsilon      = 0.1
	svrC            = 1
	svrIters        = 300
	svrLearningRate = 0.1
)

// SVR is a linear ε-SVR: minimize ½|w|² + C·Σ max(0, |wᵀx+b − y| − ε),
// trained by subgradient descent. Targets are standardized internally.
type SVR struct {
	w           []float64
	b           float64
	yMean, yStd float64
	dim         int
}

// NewSVR returns an untrained SVR.
func NewSVR() *SVR { return &SVR{} }

// Name implements Regressor.
func (s *SVR) Name() string { return "SVR" }

// Fit implements Regressor.
func (s *SVR) Fit(x [][]float64, y []float64) error {
	d, err := checkXY(x, y)
	if err != nil {
		return err
	}
	s.dim = d
	n := len(x)
	mean, sd := stat.Mean(y), stat.StdDev(y)
	if sd < 1e-12 {
		sd = 1
	}
	s.yMean, s.yStd = mean, sd

	s.w = make([]float64, d)
	s.b = 0
	lam := 1 / (svrC * float64(n))
	for it := 0; it < svrIters; it++ {
		lr := svrLearningRate / (1 + 0.05*float64(it))
		for i := 0; i < n; i++ {
			t := (y[i] - mean) / sd
			pred := dot(s.w, x[i]) + s.b
			r := pred - t
			var g float64
			switch {
			case r > svrEpsilon:
				g = 1
			case r < -svrEpsilon:
				g = -1
			}
			for j := 0; j < d; j++ {
				s.w[j] -= lr * (g*x[i][j] + lam*s.w[j])
			}
			s.b -= lr * g
		}
	}
	return nil
}

// Predict implements Regressor.
func (s *SVR) Predict(x []float64) float64 {
	return (dot(s.w, x)+s.b)*s.yStd + s.yMean
}

// KNN is k-nearest-neighbor regression with inverse-distance weighting
// (the paper's "KNNAR").
type KNN struct {
	k int
	x [][]float64
	y []float64
}

// NewKNN returns an untrained KNN regressor; k ≤ 0 defaults to 5.
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{k: k}
}

// Name implements Regressor.
func (k *KNN) Name() string { return "KNNAR" }

// Fit implements Regressor (memorizes the training set).
func (k *KNN) Fit(x [][]float64, y []float64) error {
	if _, err := checkXY(x, y); err != nil {
		return err
	}
	k.x = x
	k.y = y
	return nil
}

// Predict implements Regressor.
func (k *KNN) Predict(q []float64) float64 {
	type nb struct {
		d float64
		y float64
	}
	nbs := make([]nb, len(k.x))
	for i := range k.x {
		var d2 float64
		for j := range k.x[i] {
			if j < len(q) {
				dd := k.x[i][j] - q[j]
				d2 += dd * dd
			}
		}
		nbs[i] = nb{d: math.Sqrt(d2), y: k.y[i]}
	}
	sort.Slice(nbs, func(a, b int) bool { return nbs[a].d < nbs[b].d })
	kk := k.k
	if kk > len(nbs) {
		kk = len(nbs)
	}
	var num, den float64
	for i := 0; i < kk; i++ {
		w := 1 / (nbs[i].d + 1e-9)
		num += w * nbs[i].y
		den += w
	}
	return num / den
}
