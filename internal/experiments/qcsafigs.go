package experiments

import (
	"fmt"

	"locat/internal/qcsa"
	"locat/internal/workloads"
)

// Fig7NQCSA regenerates Figure 7: how the mean query CV of TPC-DS and TPC-H
// changes as the QCSA sample count grows from 10 to 55 — the experiment that
// fixes N_QCSA = 30.
func Fig7NQCSA(s *Session) ([]Table, error) {
	counts := []int{10, 15, 20, 25, 30, 35, 40, 45, 50, 55}
	benches := []string{"TPC-DS", "TPC-H"}
	if s.Quick {
		counts = []int{10, 20, 30}
		benches = []string{"TPC-H"}
	}
	t := Table{
		ID:    "fig7",
		Title: "Mean query CV vs number of QCSA samples (100 GB, ARM)",
		Cols:  append([]Col{{Name: "samples", Fmt: "%.0f"}}, cols("%.3f", benches...)...),
	}
	for _, n := range counts {
		t.Rows = append(t.Rows, []any{float64(n)})
	}
	max := counts[len(counts)-1]
	for _, bn := range benches {
		_, runs, err := s.sample(qcsaDraws, "arm", bn, 100, max)
		if err != nil {
			return nil, err
		}
		app, err := workloads.ByName(bn)
		if err != nil {
			return nil, err
		}
		for i, n := range counts {
			res, err := qcsa.Analyze(app, runs[:n])
			if err != nil {
				return nil, err
			}
			t.Rows[i] = append(t.Rows[i], res.MeanCV())
		}
	}
	return []Table{t}, nil
}

// Fig8QueryCV regenerates Figure 8: the configuration-sensitivity CV of
// every TPC-DS query at 100 GB, plus the QCSA classification (Section 5.2
// keeps 23 of 104 queries).
func Fig8QueryCV(s *Session) ([]Table, error) {
	n := 30
	if s.Quick {
		n = 15
	}
	res, err := s.canonicalQCSA("arm", "TPC-DS", 100, n)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "fig8",
		Title: fmt.Sprintf("Per-query CV, TPC-DS 100 GB (cut=%.2f, kept %d/104)", res.Cut, len(res.Sensitive)),
		Cols:  []Col{{Name: "query"}, {Name: "CV", Fmt: "%.2f"}, {Name: "mean(s)", Fmt: "%.1f"}, {Name: "class"}},
	}
	for _, q := range res.Queries {
		class := "CIQ"
		if q.Sensitive {
			class = "CSQ"
		}
		t.Rows = append(t.Rows, []any{q.Name, q.CV, q.MeanSec, class})
	}
	// Summary block: overlap with the paper's 23-query list.
	paper := map[string]bool{}
	for _, n := range workloads.SensitiveTPCDS {
		paper[n] = true
	}
	match := 0
	for _, n := range res.Sensitive {
		if paper[n] {
			match++
		}
	}
	sum := Table{
		ID:    "fig8-summary",
		Title: "QCSA classification vs the paper's Section 5.2 result",
		Cols:  []Col{{Name: "metric"}, {Name: "value", Fmt: "%.2f"}},
		Rows: [][]any{
			{"queries kept", num{float64(len(res.Sensitive)), "%.0f (paper: 23)"}},
			{"overlap with paper's CSQ set", num{float64(match), "%.0f/23"}},
			{"max CV (Q72 in paper, 3.49)", res.MaxCV},
			{"RQA time fraction", res.RQATimeFrac},
		},
	}
	return []Table{t, sum}, nil
}
