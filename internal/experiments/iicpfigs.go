package experiments

import (
	"fmt"
	"math"
	"strings"

	"locat/internal/conf"
	"locat/internal/iicp"
	"locat/internal/kpca"
	"locat/internal/ml"
	"locat/internal/sparksim"
	"locat/internal/stat"
	"locat/internal/workloads"
)

// varyParams runs the application n times with the given parameter indices
// drawn uniformly at random (all other parameters at defaults) and returns
// the execution times. This is the paper's probe for "how important is this
// parameter set": more important sets produce a larger spread (Figures 6
// and 17).
func (s *Session) varyParams(clusterName, benchName string, gb float64, idx []int, n int, seed int64) ([]float64, error) {
	app, err := workloads.ByName(benchName)
	if err != nil {
		return nil, err
	}
	stream := fmt.Sprintf("vary/%s/%s/%v/%s/%d/%d", clusterName, benchName, gb, idxKey(idx), n, seed)
	r, err := s.runnerSeeded(clusterName, seed, stream)
	if err != nil {
		return nil, err
	}
	space := r.Space()
	sub, err := conf.NewSubspace(space, space.Default(), idx)
	if err != nil {
		return nil, err
	}
	rng := newRng(seed)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.RunApp(app, sub.Random(rng), gb).Sec)
	}
	return out, nil
}

// idxKey renders a parameter-index set as a compact stable stream-key part.
func idxKey(idx []int) string {
	parts := make([]string, len(idx))
	for i, j := range idx {
		parts[i] = fmt.Sprint(j)
	}
	return strings.Join(parts, "-")
}

// Fig6KernelComparison regenerates Figure 6: the standard deviation of
// execution times when the application is configured by the parameters
// selected by KPCA under the Gaussian, perceptron and polynomial kernels.
// The paper selects the Gaussian kernel because it yields the largest S.D.
func Fig6KernelComparison(s *Session) ([]Table, error) {
	benches := []string{"TPC-DS", "TPC-H"}
	nSamples, nRuns := 20, 20
	if s.Quick {
		benches = []string{"TPC-H"}
		nSamples, nRuns = 10, 8
	}
	kernels := []kpca.Kernel{
		{Kind: kpca.Gaussian},
		{Kind: kpca.Perceptron},
		{Kind: kpca.Polynomial},
	}
	t := Table{
		ID:    "fig6",
		Title: "S.D. of execution times by CPE kernel (100 GB, ARM)",
		Cols:  append([]Col{{Name: "benchmark"}}, cols("%.0f", "gaussian", "perceptron", "polynomial")...),
	}
	for _, bn := range benches {
		samples, err := s.iicpSamples("arm", bn, 100, nSamples)
		if err != nil {
			return nil, err
		}
		row := []any{bn}
		for _, k := range kernels {
			opts := iicp.DefaultOptions()
			opts.Kernel = k
			res, err := iicp.Analyze(sparksim.ARM().Space(), samples, opts)
			if err != nil {
				return nil, err
			}
			times, err := s.varyParams("arm", bn, 100, res.Important, nRuns, s.Seed+21)
			if err != nil {
				return nil, err
			}
			row = append(row, stat.StdDev(times))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig9NIICP regenerates Figure 9: the identified-important-parameter count
// as N_IICP grows from 5 to 50 — the experiment that fixes N_IICP = 20.
func Fig9NIICP(s *Session) ([]Table, error) {
	counts := []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	if s.Quick {
		counts = []int{5, 10, 20}
	}
	benches := s.benchNames()
	t := Table{
		ID:    "fig9",
		Title: "Number of identified important parameters vs N_IICP (100 GB, ARM)",
		Cols:  cols("%.0f", append([]string{"samples"}, benches...)...),
	}
	for _, n := range counts {
		t.Rows = append(t.Rows, []any{float64(n)})
	}
	max := counts[len(counts)-1]
	space := sparksim.ARM().Space()
	for _, bn := range benches {
		samples, err := s.iicpSamples("arm", bn, 100, max)
		if err != nil {
			return nil, err
		}
		for i, n := range counts {
			res, err := iicp.Analyze(space, samples[:n], iicp.DefaultOptions())
			if err != nil {
				return nil, err
			}
			t.Rows[i] = append(t.Rows[i], float64(res.NumImportant()))
		}
	}
	return []Table{t}, nil
}

// Fig10CPSCPE regenerates Figure 10: how many of the 38 parameters survive
// CPS, and how many CPE extracts, per benchmark (paper: 38 → ~26-31 → ~8-15).
func Fig10CPSCPE(s *Session) ([]Table, error) {
	n := 20
	if s.Quick {
		n = 10
	}
	t := Table{
		ID:    "fig10",
		Title: "Parameter counts: original vs CPS-selected vs CPE-extracted (N_IICP samples)",
		Cols:  append([]Col{{Name: "benchmark"}}, cols("%.0f", "original", "CPS", "CPE")...),
	}
	space := sparksim.ARM().Space()
	for _, bn := range s.benchNames() {
		samples, err := s.iicpSamples("arm", bn, 100, n)
		if err != nil {
			return nil, err
		}
		res, err := iicp.Analyze(space, samples, iicp.DefaultOptions())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []any{bn, float64(conf.NumParams),
			float64(res.NumSelected()), float64(res.NumImportant())})
	}
	return []Table{t}, nil
}

// Table3TopParams regenerates Table 3: the five most important parameters
// (by CPS Spearman rank) for TPC-DS at 100 GB, 500 GB and 1 TB. A larger
// sample count is used than N_IICP so the ranking reflects the response
// surface rather than Spearman sampling noise (see EXPERIMENTS.md).
func Table3TopParams(s *Session) ([]Table, error) {
	n := 100
	sizes := []float64{100, 500, 1024}
	if s.Quick {
		n = 30
		sizes = []float64{100, 500}
	}
	t := Table{
		ID:    "table3",
		Title: "Top-5 important parameters by CPS, TPC-DS",
		Cols:  append([]Col{{Name: "rank", Fmt: "%.0f"}}, cols("", sizesHeader(sizes)...)...),
	}
	for r := 1; r <= 5; r++ {
		t.Rows = append(t.Rows, []any{float64(r)})
	}
	space := sparksim.ARM().Space()
	for _, gb := range sizes {
		samples, err := s.iicpSamples("arm", "TPC-DS", gb, n)
		if err != nil {
			return nil, err
		}
		res, err := iicp.Analyze(space, samples, iicp.DefaultOptions())
		if err != nil {
			return nil, err
		}
		for r, name := range res.TopParams(5) {
			t.Rows[r] = append(t.Rows[r], name)
		}
	}
	return []Table{t}, nil
}

// Fig16ModelMSE regenerates Figure 16: the accuracy (MSE on [0,1]-normalized
// latencies) of performance models built by GBRT, SVR, LinearR, LR and
// KNNAR; GBRT must come out lowest.
func Fig16ModelMSE(s *Session) ([]Table, error) {
	train, test := 100, 40
	if s.Quick {
		train, test = 30, 15
	}
	t := Table{
		ID:    "fig16",
		Title: "Performance-model MSE by learning algorithm (100 GB, ARM)",
		Cols:  append([]Col{{Name: "benchmark"}}, cols("%.3f", "GBRT", "SVR", "LinearR", "LR", "KNNAR")...),
	}
	space := sparksim.ARM().Space()
	for _, bn := range s.benchNames() {
		samples, err := s.iicpSamples("arm", bn, 100, train+test)
		if err != nil {
			return nil, err
		}
		// Model log-latency normalized to [0,1] over the whole set (the
		// paper's MSE axis is unit-scaled; the log transform keeps the
		// OOM-thrash tail from compressing the bulk of the scale).
		lo, hi := math.Log(samples[0].Sec), math.Log(samples[0].Sec)
		for _, sm := range samples {
			lo, hi = min(lo, math.Log(sm.Sec)), max(hi, math.Log(sm.Sec))
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		var xs [][]float64
		var ys []float64
		for _, sm := range samples {
			xs = append(xs, space.Encode(sm.Conf))
			ys = append(ys, (math.Log(sm.Sec)-lo)/span)
		}
		row := []any{bn}
		for _, m := range ml.All() {
			if err := m.Fit(xs[:train], ys[:train]); err != nil {
				return nil, err
			}
			pred := make([]float64, test)
			for j := 0; j < test; j++ {
				pred[j] = m.Predict(xs[train+j])
			}
			row = append(row, stat.MSE(pred, ys[train:]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.summarize(s, "AVG", "avg/", 1)
	return []Table{t}, nil
}

// Fig17IICPvsGBRT regenerates Figure 17: the spread (S.D.) of execution
// times when the application is configured by the important parameters
// identified by IICP versus by GBRT feature importance, as the probe run
// count grows. Higher spread = the method found parameters that matter more.
func Fig17IICPvsGBRT(s *Session) ([]Table, error) {
	benches := []string{"TPC-DS", "Join"}
	runCounts := []int{5, 10, 15, 20, 25, 30}
	nSamples := 20
	if s.Quick {
		benches = []string{"Join"}
		runCounts = []int{5, 10}
		nSamples = 10
	}
	space := sparksim.ARM().Space()
	var tables []Table
	for _, bn := range benches {
		samples, err := s.iicpSamples("arm", bn, 100, nSamples)
		if err != nil {
			return nil, err
		}
		ires, err := iicp.Analyze(space, samples, iicp.DefaultOptions())
		if err != nil {
			return nil, err
		}
		// GBRT importance on the same samples, taking the same number of
		// parameters as IICP identified.
		var xs [][]float64
		var ys []float64
		for _, sm := range samples {
			xs = append(xs, space.Encode(sm.Conf))
			ys = append(ys, sm.Sec)
		}
		g := ml.NewGBRT(ml.GBRTOptions{})
		if err := g.Fit(xs, ys); err != nil {
			return nil, err
		}
		gbrtIdx := topIndices(g.FeatureImportance(), len(ires.Important))

		t := Table{
			ID:    "fig17",
			Title: fmt.Sprintf("S.D. of execution times, params by IICP vs GBRT (%s, 100 GB)", bn),
			Cols:  cols("%.0f", "runs", "IICP", "GBRT"),
		}
		for _, rc := range runCounts {
			ti, err := s.varyParams("arm", bn, 100, ires.Important, rc, s.Seed+31)
			if err != nil {
				return nil, err
			}
			tg, err := s.varyParams("arm", bn, 100, gbrtIdx, rc, s.Seed+31)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []any{float64(rc), stat.StdDev(ti), stat.StdDev(tg)})
		}
		t.summarize(s, "AVG", bn+"/avg/", 1)
		tables = append(tables, t)
	}
	return tables, nil
}

// topIndices returns the indices of the k largest values.
func topIndices(vals []float64, k int) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		m := i
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] > vals[idx[m]] {
				m = j
			}
		}
		idx[i], idx[m] = idx[m], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
