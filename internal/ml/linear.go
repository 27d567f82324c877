package ml

import (
	"math"

	"locat/internal/mat"
	"locat/internal/stat"
)

// Linear is ordinary least squares with a small ridge term for stability.
type Linear struct {
	w     []float64 // weights, last entry is the intercept
	dim   int
	ridge float64
}

// NewLinear returns an untrained linear regressor.
func NewLinear() *Linear { return &Linear{ridge: 1e-6} }

// Name implements Regressor.
func (l *Linear) Name() string { return "LinearR" }

// Fit implements Regressor: solves (XᵀX + λI)w = Xᵀy with an intercept
// column appended.
func (l *Linear) Fit(x [][]float64, y []float64) error {
	d, err := checkXY(x, y)
	if err != nil {
		return err
	}
	l.dim = d
	n := len(x)
	xa := mat.NewDense(n, d+1, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xa.Set(i, j, x[i][j])
		}
		xa.Set(i, d, 1)
	}
	xt := xa.T()
	gram := mat.Mul(xt, xa).AddDiag(l.ridge * float64(n))
	rhs := mat.MulVec(xt, y)
	ch, err := mat.NewCholesky(gram)
	if err != nil {
		// Increase ridge until solvable.
		for lam := 1e-4; lam <= 1; lam *= 10 {
			g2 := mat.Mul(xt, xa).AddDiag(lam * float64(n))
			if ch2, err2 := mat.NewCholesky(g2); err2 == nil {
				l.w = ch2.SolveVecInto(rhs, rhs)
				return nil
			}
		}
		return err
	}
	l.w = ch.SolveVecInto(rhs, rhs)
	return nil
}

// Predict implements Regressor.
func (l *Linear) Predict(x []float64) float64 {
	s := l.w[len(l.w)-1]
	for i := 0; i < l.dim && i < len(x); i++ {
		s += l.w[i] * x[i]
	}
	return s
}

// The logistic regressor's full-batch gradient steps and step size.
const (
	logisticIters        = 500
	logisticLearningRate = 0.5
)

// Logistic fits y ≈ lo + (hi-lo)·σ(wᵀx + b) by gradient descent on squared
// loss — the paper's "LR" comparator applied to a regression target (the
// target range is learned from the training data).
type Logistic struct {
	w      []float64
	b      float64
	lo, hi float64
	dim    int
}

// NewLogistic returns an untrained logistic regressor.
func NewLogistic() *Logistic { return &Logistic{} }

// Name implements Regressor.
func (l *Logistic) Name() string { return "LR" }

// Fit implements Regressor.
func (l *Logistic) Fit(x [][]float64, y []float64) error {
	d, err := checkXY(x, y)
	if err != nil {
		return err
	}
	l.dim = d
	l.lo = stat.Min(y)
	l.hi = stat.Max(y)
	if l.hi-l.lo < 1e-12 {
		l.hi = l.lo + 1
	}
	n := len(x)
	// Targets scaled into (0,1) with a margin so the sigmoid can reach them.
	t := make([]float64, n)
	for i := range y {
		t[i] = 0.05 + 0.9*(y[i]-l.lo)/(l.hi-l.lo)
	}
	l.w = make([]float64, d)
	l.b = 0
	lr := logisticLearningRate
	for it := 0; it < logisticIters; it++ {
		gw := make([]float64, d)
		gb := 0.0
		for i := 0; i < n; i++ {
			p := sigmoid(dot(l.w, x[i]) + l.b)
			// d/dz of ½(p-t)²: (p-t)·p·(1-p)
			g := (p - t[i]) * p * (1 - p)
			for j := 0; j < d; j++ {
				gw[j] += g * x[i][j]
			}
			gb += g
		}
		for j := 0; j < d; j++ {
			l.w[j] -= lr * gw[j] / float64(n)
		}
		l.b -= lr * gb / float64(n)
	}
	return nil
}

// Predict implements Regressor.
func (l *Logistic) Predict(x []float64) float64 {
	p := sigmoid(dot(l.w, x) + l.b)
	return l.lo + (l.hi-l.lo)*(p-0.05)/0.9
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func dot(w, x []float64) float64 {
	var s float64
	for i := range w {
		if i < len(x) {
			s += w[i] * x[i]
		}
	}
	return s
}
