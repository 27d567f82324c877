// Package qcsa implements Query Configuration Sensitivity Analysis — the
// first of LOCAT's three techniques (paper Section 3.2). Given the per-query
// latencies of N_QCSA executions of an application under different
// configurations, it computes each query's coefficient of variation
// (equation 3), splits the CV range into three equal partitions
// (equation 4), classifies the queries in the lowest partition as
// configuration-insensitive (CIQ), and produces the reduced query
// application (RQA) containing only the configuration-sensitive queries
// (CSQ).
package qcsa

import (
	"errors"
	"fmt"
	"sort"

	"locat/internal/sparksim"
	"locat/internal/stat"
)

// QueryCV is one query's sensitivity record.
type QueryCV struct {
	// Name is the query name.
	Name string
	// CV is the coefficient of variation of the query's latency across the
	// analyzed runs (equation 3).
	CV float64
	// MeanSec is the query's mean latency across the runs.
	MeanSec float64
	// Sensitive reports whether the query is classified CSQ.
	Sensitive bool
}

// Result is the outcome of the analysis.
type Result struct {
	// Queries holds every query's CV in descending-CV order.
	Queries []QueryCV
	// MinCV, MaxCV and Cut describe the three-partition rule: queries with
	// CV < Cut = MinCV + (MaxCV-MinCV)/3 are configuration-insensitive.
	MinCV, MaxCV, Cut float64
	// Sensitive lists CSQ names in descending-CV order.
	Sensitive []string
	// Insensitive lists CIQ names in descending-CV order.
	Insensitive []string
	// RQA is the reduced query application (CSQ only, original order).
	RQA *sparksim.Application
	// RQATimeFrac is the mean fraction of total application time spent in
	// the retained queries — the expected per-run saving from using the RQA
	// during sample collection.
	RQATimeFrac float64
}

// Analyze classifies the queries of app from the per-query latencies of the
// given runs. Every run must contain a result for every query of app.
// The paper determines N_QCSA = 30 empirically (Section 5.1); Analyze
// accepts any count ≥ 2 so that the N_QCSA calibration experiment itself
// can use it.
func Analyze(app *sparksim.Application, runs []sparksim.AppResult) (*Result, error) {
	if len(runs) < 2 {
		return nil, errors.New("qcsa: need at least 2 runs")
	}
	m := len(app.Queries)
	times := make(map[string][]float64, m)
	for ri, run := range runs {
		if len(run.Queries) != m {
			return nil, fmt.Errorf("qcsa: run %d has %d query results, want %d", ri, len(run.Queries), m)
		}
		for _, qr := range run.Queries {
			times[qr.Name] = append(times[qr.Name], qr.Sec)
		}
	}

	res := &Result{}
	for _, q := range app.Queries {
		ts, ok := times[q.Name]
		if !ok || len(ts) != len(runs) {
			return nil, fmt.Errorf("qcsa: query %s missing from some runs", q.Name)
		}
		res.Queries = append(res.Queries, QueryCV{
			Name:    q.Name,
			CV:      stat.CV(ts),
			MeanSec: stat.Mean(ts),
		})
	}
	sort.SliceStable(res.Queries, func(i, j int) bool { return res.Queries[i].CV > res.Queries[j].CV })

	res.MaxCV = res.Queries[0].CV
	res.MinCV = res.Queries[len(res.Queries)-1].CV
	// Equation 4: three equal partitions of the CV range; the lowest
	// partition is insensitive.
	res.Cut = res.MinCV + (res.MaxCV-res.MinCV)/3

	keep := make(map[string]bool, m)
	for i := range res.Queries {
		q := &res.Queries[i]
		q.Sensitive = q.CV >= res.Cut
		if q.Sensitive {
			keep[q.Name] = true
			res.Sensitive = append(res.Sensitive, q.Name)
		} else {
			res.Insensitive = append(res.Insensitive, q.Name)
		}
	}
	res.RQA = app.Subset(keep)

	// Fraction of application time retained by the RQA.
	var kept, total float64
	for _, q := range res.Queries {
		total += q.MeanSec
		if q.Sensitive {
			kept += q.MeanSec
		}
	}
	if total > 0 {
		res.RQATimeFrac = kept / total
	}
	return res, nil
}

// MeanCV returns the mean CV across all queries — the convergence metric
// the paper tracks when calibrating N_QCSA (Figure 7).
func (r *Result) MeanCV() float64 {
	var s float64
	for _, q := range r.Queries {
		s += q.CV
	}
	return s / float64(len(r.Queries))
}
