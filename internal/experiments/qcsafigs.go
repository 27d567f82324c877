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
		ID:     "fig7",
		Title:  "Mean query CV vs number of QCSA samples (100 GB, ARM)",
		Header: append([]string{"samples"}, benches...),
	}
	max := counts[len(counts)-1]
	runsBy := map[string][]float64{}
	for _, bn := range benches {
		runs, err := s.randomRuns("arm", bn, 100, max)
		if err != nil {
			return nil, err
		}
		app, err := workloads.ByName(bn)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			res, err := qcsa.Analyze(app, runs[:n])
			if err != nil {
				return nil, err
			}
			runsBy[bn] = append(runsBy[bn], res.MeanCV())
		}
	}
	for i, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, bn := range benches {
			row = append(row, fmt.Sprintf("%.3f", runsBy[bn][i]))
		}
		t.Rows = append(t.Rows, row)
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
		ID:     "fig8",
		Title:  fmt.Sprintf("Per-query CV, TPC-DS 100 GB (cut=%.2f, kept %d/104)", res.Cut, len(res.Sensitive)),
		Header: []string{"query", "CV", "mean(s)", "class"},
	}
	for _, q := range res.Queries {
		class := "CIQ"
		if q.Sensitive {
			class = "CSQ"
		}
		t.Rows = append(t.Rows, []string{q.Name, f2(q.CV), f1(q.MeanSec), class})
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
		ID:     "fig8-summary",
		Title:  "QCSA classification vs the paper's Section 5.2 result",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"queries kept", fmt.Sprintf("%d (paper: 23)", len(res.Sensitive))},
			{"overlap with paper's CSQ set", fmt.Sprintf("%d/23", match)},
			{"max CV (Q72 in paper, 3.49)", f2(res.MaxCV)},
			{"RQA time fraction", f2(res.RQATimeFrac)},
		},
	}
	return []Table{t, sum}, nil
}
