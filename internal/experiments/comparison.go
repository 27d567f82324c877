package experiments

import "fmt"

// overheadBySize tabulates the tuning overhead (h) of each tuner on TPC-DS
// (ARM) at each size: Figure 2, and Figure 20 above its growth row.
func (s *Session) overheadBySize(id, title string, tuners []string, sizes []float64) (Table, error) {
	t := Table{
		ID:    id,
		Title: title,
		Cols:  append([]Col{{Name: "size(GB)", Fmt: "%.0f"}}, cols("%.1f", tuners...)...),
	}
	for _, gb := range sizes {
		row := []any{gb}
		for _, tn := range tuners {
			o, err := s.Tune("arm", "TPC-DS", tn, gb)
			if err != nil {
				return Table{}, err
			}
			row = append(row, o.OverheadSec/3600)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig2Motivation regenerates Figure 2: hours the four SOTA approaches need
// to find the optimal TPC-DS configuration at 100–500 GB (ARM cluster).
func Fig2Motivation(s *Session) ([]Table, error) {
	t, err := s.overheadBySize("fig2", "Optimization overhead (h) of SOTA tuners, TPC-DS on ARM",
		TunerNames[1:], s.sizes())
	if err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// versusSOTA builds Figures 11–14: for every benchmark at each size (a
// size column only when there are several), the ratio of each SOTA tuner's
// outcome to LOCAT's, then their averages. Each tuner's run count, summed
// over the rows, is published beside the averages as counter
// "runs/<tuner>", so every ratio sits beside its sample budgets.
func (s *Session) versusSOTA(clusterName, id, title, format string, sizes []float64,
	ratio func(sota, locat *Outcome) float64) ([]Table, error) {
	t := Table{ID: id, Title: title, Cols: []Col{{Name: "benchmark"}}}
	if len(sizes) > 1 {
		t.Cols = append(t.Cols, Col{Name: "size(GB)", Fmt: "%.0f"})
	}
	first := len(t.Cols)
	t.Cols = append(t.Cols, cols(format, TunerNames[1:]...)...)
	runs := make([]float64, len(TunerNames))
	for _, bn := range s.benchNames() {
		for _, gb := range sizes {
			locat, err := s.Tune(clusterName, bn, "LOCAT", gb)
			if err != nil {
				return nil, err
			}
			runs[0] += float64(locat.Runs)
			row := []any{bn}
			if len(sizes) > 1 {
				row = append(row, gb)
			}
			for i, tn := range TunerNames[1:] {
				o, err := s.Tune(clusterName, bn, tn, gb)
				if err != nil {
					return nil, err
				}
				runs[i+1] += float64(o.Runs)
				row = append(row, ratio(o, locat))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.summarize(s, "Average", "avg/", first)
	for i, tn := range TunerNames {
		s.SetCounter("runs/"+tn, runs[i])
	}
	return []Table{t}, nil
}

// optTimeReduction builds Figure 11/12: the factor by which LOCAT reduces
// each SOTA tuner's optimization time, per benchmark, at 300 GB.
func (s *Session) optTimeReduction(clusterName, id, title string) ([]Table, error) {
	gb := 300.0
	if s.Quick {
		gb = 100
	}
	return s.versusSOTA(clusterName, id, title, "%.1f", []float64{gb},
		func(sota, locat *Outcome) float64 { return sota.OverheadSec / locat.OverheadSec })
}

// Fig11OptTimeARM regenerates Figure 11 (paper values: EXPERIMENTS.md,
// "Paper vs reproduction").
func Fig11OptTimeARM(s *Session) ([]Table, error) {
	return s.optTimeReduction("arm", "fig11",
		"Optimization-time reduction over SOTA (×), four-node ARM cluster, 300 GB")
}

// Fig12OptTimeX86 regenerates Figure 12 (paper values: EXPERIMENTS.md).
func Fig12OptTimeX86(s *Session) ([]Table, error) {
	return s.optTimeReduction("x86", "fig12",
		"Optimization-time reduction over SOTA (×), eight-node x86 cluster, 300 GB")
}

// speedup builds Figure 13/14: the speedup of the LOCAT-tuned configuration
// over each SOTA-tuned configuration for every program-input pair.
func (s *Session) speedup(clusterName, id, title string) ([]Table, error) {
	return s.versusSOTA(clusterName, id, title, "%.2f", s.sizes(),
		func(sota, locat *Outcome) float64 { return sota.TunedSec / locat.TunedSec })
}

// Fig13SpeedupARM regenerates Figure 13 (paper values: EXPERIMENTS.md).
func Fig13SpeedupARM(s *Session) ([]Table, error) {
	return s.speedup("arm", "fig13",
		"Speedup of LOCAT-tuned over SOTA-tuned configurations, ARM cluster")
}

// Fig14SpeedupX86 regenerates Figure 14 (paper values: EXPERIMENTS.md).
func Fig14SpeedupX86(s *Session) ([]Table, error) {
	return s.speedup("x86", "fig14",
		"Speedup of LOCAT-tuned over SOTA-tuned configurations, x86 cluster")
}

// Fig20OverheadGrowth regenerates Figure 20: tuning overhead versus input
// size for LOCAT and the SOTA tuners (TPC-DS, ARM).
func Fig20OverheadGrowth(s *Session) ([]Table, error) {
	sizes := []float64{100, 200, 300}
	if s.Quick {
		sizes = []float64{100, 300}
	}
	t, err := s.overheadBySize("fig20", "Tuning overhead (h) vs input data size, TPC-DS on ARM",
		TunerNames, sizes)
	if err != nil {
		return nil, err
	}
	// Growth factor 100→max size per tuner.
	last := sizes[len(sizes)-1]
	row := []any{fmt.Sprintf("growth 100→%v", last)}
	for _, tn := range TunerNames {
		a, err := s.Tune("arm", "TPC-DS", tn, 100)
		if err != nil {
			return nil, err
		}
		b, err := s.Tune("arm", "TPC-DS", tn, last)
		if err != nil {
			return nil, err
		}
		row = append(row, num{b.OverheadSec / a.OverheadSec, "%.2f"})
	}
	t.Rows = append(t.Rows, row)
	return []Table{t}, nil
}
