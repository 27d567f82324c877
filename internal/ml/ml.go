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
//
// The split scan has a lane path. Where mat.HasAVX2FMA holds (checked once
// at start-up; the kernel itself uses AVX2 and never FMA), gbrt_amd64.s
// screens a feature's candidate splits four at a time: it computes
// q̃ = ls²·(1/lcnt) + (sum−ls)²·(1/rcnt) from two reciprocal tables, sets
// splits between equal values to −Inf, and stops at the first block with a
// lane not at most lim = (best + 1e-12 + parent)·(1 − 1e-13). Go replays
// only that block, with the exact gain expression and the `> best+1e-12`
// rule, in (feature, position) order, so every tree, threshold, leaf and
// importance is the one the Go loop alone builds. The margin covers q̃'s
// extra roundings (the proof is in gbrt_amd64.s); a NaN or an overflow is
// always flagged. Elsewhere the Go loop tests every candidate.
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
