// Package iicp implements Identification of Important Configuration
// Parameters — the second of LOCAT's three techniques (paper Section 3.3).
// It is the paper's hybrid of feature selection and feature extraction:
//
//   - CPS (configuration parameter selection) computes the Spearman
//     correlation coefficient between each parameter's value and the
//     observed execution time across N_IICP sampled runs, and drops
//     parameters with |SCC| < 0.2 (the standard poor-correlation boundary).
//   - CPE (configuration parameter extraction) runs kernel PCA with the
//     Gaussian kernel (the winner of the paper's Figure 6 comparison) over
//     the CPS-selected parameters and keeps the leading nonlinear
//     components.
//
// The kept-component count is CPE's estimate of how many independent
// directions of the configuration space drive performance; the important
// original parameters handed to Bayesian optimization are the equally many
// strongest CPS correlates (this realizes the "derive the values of the
// original configuration parameters from the new parameters" step of
// Section 3.3.2). CPE is that count of kept eigenvalues and nothing more:
// no point is projected onto the components or mapped back from them.
package iicp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"locat/internal/conf"
	"locat/internal/kpca"
	"locat/internal/stat"
)

// Sample is one observed execution: a configuration and its latency.
type Sample struct {
	// Conf is the full 38-parameter configuration.
	Conf conf.Config
	// Sec is the observed application (or RQA) latency.
	Sec float64
}

// Options control the analysis.
type Options struct {
	// Kernel is the CPE kernel (default Gaussian, per Figure 6).
	Kernel kpca.Kernel
}

// DefaultOptions mirror the paper.
func DefaultOptions() Options {
	return Options{Kernel: kpca.Kernel{Kind: kpca.Gaussian}}
}

const (
	// sccCutoff is the |Spearman| threshold below which CPS drops a
	// parameter (paper: 0.2).
	sccCutoff = 0.2
	// minEigenFrac is the relative-eigenvalue keep rule CPE passes to KPCA;
	// it yields ≈15 components for TPC-DS at N_IICP = 20, matching the
	// paper's Figure 10.
	minEigenFrac = 0.012
)

// ParamScore is one parameter's CPS record.
type ParamScore struct {
	// Index is the parameter index (conf.P* constants).
	Index int
	// Name is the Spark property key.
	Name string
	// SCC is the Spearman correlation between the parameter and latency.
	SCC float64
}

// Result is the outcome of IICP.
type Result struct {
	// Scores holds every parameter's SCC, sorted by |SCC| descending.
	Scores []ParamScore
	// Selected are the CPS-surviving parameter indices (|SCC| ≥ cutoff),
	// ordered by |SCC| descending.
	Selected []int
	// Important are the original-parameter indices attributed to the kept
	// KPCA components, in component order — the set BO tunes.
	Important []int
}

// Analyze runs CPS then CPE on the samples. CPE contributes one number, the
// count of eigenvalues kernel PCA keeps over the selected columns; nothing is
// projected. The paper determines N_IICP = 20 empirically (Section 5.3);
// Analyze accepts any count ≥ 4.
func Analyze(space *conf.Space, samples []Sample, opts Options) (*Result, error) {
	if len(samples) < 4 {
		return nil, errors.New("iicp: need at least 4 samples")
	}
	n := len(samples)
	d := space.Dim()

	// Encode all configurations once.
	enc := make([][]float64, n)
	times := make([]float64, n)
	for i, s := range samples {
		if len(s.Conf) != d {
			return nil, fmt.Errorf("iicp: sample %d has %d parameters, want %d", i, len(s.Conf), d)
		}
		enc[i] = space.Encode(s.Conf)
		times[i] = s.Sec
	}

	// CPS: Spearman of each parameter column against latency.
	res := &Result{}
	params := conf.Params()
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			col[i] = enc[i][j]
		}
		res.Scores = append(res.Scores, ParamScore{
			Index: j,
			Name:  params[j].Name,
			SCC:   stat.Spearman(col, times),
		})
	}
	sort.SliceStable(res.Scores, func(a, b int) bool {
		return math.Abs(res.Scores[a].SCC) > math.Abs(res.Scores[b].SCC)
	})
	for _, s := range res.Scores {
		if math.Abs(s.SCC) >= sccCutoff {
			res.Selected = append(res.Selected, s.Index)
		}
	}
	if len(res.Selected) == 0 {
		// Degenerate data: keep the single best-correlated parameter so the
		// tuner always has something to tune.
		res.Selected = []int{res.Scores[0].Index}
	}

	// CPE: kernel PCA over the selected columns.
	sub := make([][]float64, n)
	for i := range enc {
		row := make([]float64, len(res.Selected))
		for k, j := range res.Selected {
			row[k] = enc[i][j]
		}
		sub[i] = row
	}
	lambdas, err := kpca.Fit(sub, opts.Kernel, kpca.Options{MinEigenFrac: minEigenFrac})
	if err != nil {
		return nil, fmt.Errorf("iicp: CPE failed: %w", err)
	}

	// The kept-component count is CPE's estimate of the number of
	// independent directions that matter; the important original parameters
	// are the equally many strongest CPS correlates. (KPCA is unsupervised:
	// attributing components directly to parameters by component-score
	// correlation reflects the sampling distribution, not the response, and
	// demotes the true drivers — the count is the robust signal.)
	nimp := len(lambdas)
	if nimp > len(res.Selected) {
		nimp = len(res.Selected)
	}
	res.Important = append([]int(nil), res.Selected[:nimp]...)
	return res, nil
}

// TopParams returns the k most important parameter names by |SCC| — the
// CPS ranking the paper reports in Table 3.
func (r *Result) TopParams(k int) []string {
	if k > len(r.Scores) {
		k = len(r.Scores)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = r.Scores[i].Name
	}
	return out
}

// NumSelected returns the CPS-selected parameter count (Figure 10, "CPS").
func (r *Result) NumSelected() int { return len(r.Selected) }

// NumImportant returns the CPE-extracted important-parameter count
// (Figure 10, "CPE"; Figure 9's stabilizing count).
func (r *Result) NumImportant() int { return len(r.Important) }
