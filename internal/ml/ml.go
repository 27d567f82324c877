// Package ml implements the five machine-learning regressors the paper
// compares against in Sections 5.7 (Figures 16 and 17): Gradient Boosted
// Regression Trees (GBRT), Support Vector Regression (SVR), Linear
// Regression (LinearR), Logistic Regression (LR, with targets squashed to
// (0,1)), and K-Nearest-Neighbor regression (KNNAR). GBRT additionally
// exposes split-gain feature importances, which is how the GBRT-based
// important-parameter identification baseline of Figure 17 works.
//
// A GBRT fit is a function of its inputs alone. Wherever the tree builder
// orders rows by a feature, rows of equal value are ordered by row index, so
// no prediction or importance depends on how a sort algorithm happens to
// leave ties — and ties are the common case here, since most Spark
// parameters are boolean, categorical or integer.
package ml

import (
	"errors"
	"fmt"
)

// Regressor is the common interface of all five models.
type Regressor interface {
	// Name is the short model name used in the paper's figures.
	Name() string
	// Fit trains on rows x (equal lengths) and targets y.
	Fit(x [][]float64, y []float64) error
	// Predict returns the model output at x.
	Predict(x []float64) float64
}

// All returns fresh instances of the five paper models, in the paper's
// order: GBRT, SVR, LinearR, LR, KNNAR.
func All() []Regressor {
	return []Regressor{
		NewGBRT(GBRTOptions{}),
		NewSVR(),
		NewLinear(),
		NewLogistic(),
		NewKNN(5),
	}
}

func checkXY(x [][]float64, y []float64) (int, error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, errors.New("ml: empty or mismatched training data")
	}
	d := len(x[0])
	if d == 0 {
		return 0, errors.New("ml: zero-dimensional inputs")
	}
	for i := range x {
		if len(x[i]) != d {
			return 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(x[i]), d)
		}
	}
	return d, nil
}
