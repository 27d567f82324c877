package experiments

import (
	"fmt"

	"locat/internal/baselines"
	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/iicp"
	"locat/internal/qcsa"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// Fig15APvsIP regenerates Figure 15: TPC-DS tuned by LOCAT with all 38
// parameters (AP) versus with the IICP-selected important parameters (IP).
// The paper finds IP better on average (EXPERIMENTS.md, "Paper vs
// reproduction") — tuning unimportant parameters wastes the search budget
// and counteracts the important ones.
func Fig15APvsIP(s *Session) ([]Table, error) {
	t := Table{
		ID:    "fig15",
		Title: "TPC-DS duration (s) tuned with all parameters (AP) vs important parameters (IP), ARM",
		Cols:  append(cols("%.0f", "size(GB)", "AP", "IP"), Col{Name: "IP gain (×)", Fmt: "%.2f"}),
	}
	app := workloads.TPCDS()
	for _, gb := range s.sizes() {
		opts := s.locatOptions()
		opts.UseIICP = false
		rAP, err := s.runner("arm", fmt.Sprintf("fig15/ap/%v", gb))
		if err != nil {
			return nil, err
		}
		ap, err := core.New(rAP, app, opts).Tune(gb)
		if err != nil {
			return nil, err
		}
		s.chargeCost(ap.TunedSec)
		ip, err := s.Tune("arm", "TPC-DS", "LOCAT", gb)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []any{gb, ap.TunedSec, ip.TunedSec, ap.TunedSec / ip.TunedSec})
	}
	t.summarize(s, "Avg", "avg/", 3)
	return []Table{t}, nil
}

// tunedSplit runs the tuned configuration noiselessly and splits the
// per-query latency into CSQ and CIQ shares using a canonical QCSA
// classification, and reports the GC time.
func (s *Session) tunedSplit(clusterName, benchName string, gb float64, best conf.Config,
	classify *qcsa.Result) (csq, ciq, gc float64, err error) {
	app, err := workloads.ByName(benchName)
	if err != nil {
		return 0, 0, 0, err
	}
	sens := map[string]bool{}
	for _, n := range classify.Sensitive {
		sens[n] = true
	}
	r, err := s.runner(clusterName, fmt.Sprintf("split/%s/%s/%v", clusterName, benchName, gb), sparksim.WithNoise(0))
	if err != nil {
		return 0, 0, 0, err
	}
	res := r.RunApp(app, best, gb)
	for _, qr := range res.Queries {
		if sens[qr.Name] {
			csq += qr.Sec
		} else {
			ciq += qr.Sec
		}
	}
	return csq, ciq, res.GCSec, nil
}

// Fig18CSQCIQ regenerates Figure 18: the execution time of the
// configuration-sensitive (CSQ) and insensitive (CIQ) query groups of
// TPC-DS under each tuner's final configuration, at 100–300 GB. The tuners'
// gains come almost entirely from the CSQ share.
func Fig18CSQCIQ(s *Session) ([]Table, error) {
	sizes := []float64{100, 200, 300}
	nq := 30
	if s.Quick {
		sizes = []float64{100}
		nq = 12
	}
	classify, err := s.canonicalQCSA("arm", "TPC-DS", 100, nq)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "fig18",
		Title: "CSQ vs CIQ execution time (s) of tuned TPC-DS, ARM",
		Cols: append([]Col{{Name: "size(GB)", Fmt: "%.0f"}, {Name: "tuner"}},
			cols("%.0f", "CSQ", "CIQ", "total")...),
	}
	for _, gb := range sizes {
		for _, tn := range TunerNames {
			o, err := s.Tune("arm", "TPC-DS", tn, gb)
			if err != nil {
				return nil, err
			}
			csq, ciq, _, err := s.tunedSplit("arm", "TPC-DS", gb, o.Best, classify)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []any{gb, tn, csq, ciq, csq + ciq})
		}
	}
	return []Table{t}, nil
}

// Fig19GCTime regenerates Figure 19: the JVM garbage-collection time of
// TPC-DS and HiBench Join under each tuner's final configuration across the
// input sizes. LOCAT's memory settings keep GC lowest and growing slowest.
func Fig19GCTime(s *Session) ([]Table, error) {
	benches := []string{"TPC-DS", "Join"}
	nq := 30
	if s.Quick {
		benches = []string{"Join"}
		nq = 12
	}
	var tables []Table
	for _, bn := range benches {
		classify, err := s.canonicalQCSA("arm", bn, 100, nq)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:    "fig19",
			Title: fmt.Sprintf("JVM GC time (s) of tuned %s by input size, ARM", bn),
			Cols:  append([]Col{{Name: "tuner"}}, cols("%.1f", sizesHeader(s.sizes())...)...),
		}
		for _, tn := range TunerNames {
			row := []any{tn}
			for _, gb := range s.sizes() {
				o, err := s.Tune("arm", bn, tn, gb)
				if err != nil {
					return nil, err
				}
				_, _, gc, err := s.tunedSplit("arm", bn, gb, o.Best, classify)
				if err != nil {
					return nil, err
				}
				row = append(row, gc)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func sizesHeader(sizes []float64) []string {
	out := make([]string, len(sizes))
	for i, gb := range sizes {
		out[i] = fmt.Sprintf("%.0fGB", gb)
	}
	return out
}

// Fig21Hybrid regenerates Figure 21: QCSA and IICP grafted onto the SOTA
// tuners (and onto plain DAGP-BO). Four modes per tuner: APT (all-parameter
// tuning of the full application), IICP only, QCSA only, and QIT (both).
// Reported: the tuned duration and the optimization overhead.
func Fig21Hybrid(s *Session) ([]Table, error) {
	gb := 500.0
	prepN := 30
	if s.Quick {
		gb = 100
		prepN = 12
	}
	app := workloads.TPCDS()
	space := sparksim.ARM().Space()

	// Preparation artifacts, shared by all hybrids: the QCSA classification
	// and the IICP important-parameter subspace, both from one set of QCSA
	// protocol runs. Their collection cost (prepN full-application runs
	// under random configurations) is charged to every mode that uses them.
	cs, runs, err := s.sample(qcsaDraws, "arm", "TPC-DS", gb, prepN)
	if err != nil {
		return nil, err
	}
	var prepCost float64
	for _, r := range runs {
		prepCost += r.Sec
	}
	qres, err := qcsa.Analyze(app, runs)
	if err != nil {
		return nil, err
	}
	ires, err := iicp.Analyze(space, asSamples(cs, runs), iicp.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sub, err := conf.NewSubspace(space, space.Default(), ires.Important)
	if err != nil {
		return nil, err
	}

	duration := Table{
		ID:    "fig21",
		Title: fmt.Sprintf("Tuned TPC-DS duration (s) at %.0f GB with QCSA/IICP grafted onto each tuner", gb),
		Cols:  append([]Col{{Name: "tuner"}}, cols("%.0f", "APT", "IICP", "QCSA", "QIT")...),
	}
	overhead := Table{
		ID:    "fig21-overhead",
		Title: "Optimization overhead (h) with QCSA/IICP grafted onto each tuner",
		Cols:  append([]Col{{Name: "tuner"}}, cols("%.1f", "APT", "IICP", "QCSA", "QIT")...),
	}

	type mode struct {
		name     string
		restrict bool
		rqa      bool
	}
	modes := []mode{
		{"APT", false, false},
		{"IICP", true, false},
		{"QCSA", false, true},
		{"QIT", true, true},
	}
	for _, tn := range TunerNames {
		drow := []any{tn}
		orow := []any{tn}
		for _, m := range modes {
			tuned, over, err := s.runHybrid(app, qres, sub, tn, gb, m.restrict, m.rqa)
			if err != nil {
				return nil, err
			}
			if m.restrict || m.rqa {
				over += prepCost
			}
			drow = append(drow, tuned)
			orow = append(orow, over/3600)
		}
		duration.Rows = append(duration.Rows, drow)
		overhead.Rows = append(overhead.Rows, orow)
		// The claim: QIT (both techniques) against APT (neither), per tuner.
		for _, c := range []int{1, 4} {
			duration.publish(s, "duration/"+tn+"/", drow, c)
			overhead.publish(s, "overhead_h/"+tn+"/", orow, c)
		}
	}
	return []Table{duration, overhead}, nil
}

// runHybrid runs one tuner in one hybrid mode and returns the tuned
// full-application latency and the tuner's own optimization overhead.
func (s *Session) runHybrid(app *sparksim.Application,
	qres *qcsa.Result, sub *conf.Subspace, tuner string, gb float64,
	restrict, rqa bool) (tuned, overhead float64, err error) {

	target := app
	if rqa {
		target = qres.RQA
	}
	mode := fmt.Sprintf("hybrid/%s/r%v-q%v/%v", tuner, restrict, rqa, gb)
	r, err := s.runner("arm", mode)
	if err != nil {
		return 0, 0, err
	}

	if tuner == "LOCAT" {
		// "DAGP" in the paper's Figure 21: BO with the datasize-aware GP,
		// with QCSA/IICP applied per mode via the tuner's switches.
		opts := s.locatOptions()
		opts.UseQCSA = rqa
		opts.UseIICP = restrict
		rep, err := core.New(r, app, opts).Tune(gb)
		if err != nil {
			return 0, 0, err
		}
		s.chargeCost(rep.TunedSec)
		return rep.TunedSec, rep.OverheadSec, nil
	}

	bt, err := s.baseline(tuner)
	if err != nil {
		return 0, 0, err
	}
	if restrict {
		switch b := bt.(type) {
		case *baselines.Tuneful:
			b.Restrict = sub
		case *baselines.DAC:
			b.Restrict = sub
		case *baselines.GBORL:
			b.Restrict = sub
		case *baselines.QTune:
			b.Restrict = sub
		}
	}
	rep, err := bt.Tune(r, target, gb, s.Seed+7)
	if err != nil {
		return 0, 0, err
	}
	// The hybrid's final configuration is evaluated on the full application
	// (NoiselessAppTime is deterministic, so the tuning backend serves).
	tuned = r.NoiselessAppTime(app, rep.Best, gb)
	s.chargeCost(tuned)
	return tuned, rep.OverheadSec, nil
}
