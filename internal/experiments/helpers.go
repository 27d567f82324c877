package experiments

import (
	"fmt"
	"math/rand"

	"locat/internal/conf"
	"locat/internal/iicp"
	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// draws names one random-configuration sampling path: the prefix of its
// stream keys and the offset of its draws' seed from the session seed.
type draws struct {
	stream string
	seed   int64
}

var (
	// qcsaDraws are the runs QCSA's CV statistics are computed from.
	qcsaDraws = draws{"random", 11}
	// iicpDraws are the samples IICP ranks parameters over.
	iicpDraws = draws{"iicp", 13}
)

// sample runs the benchmark under n random configurations, drawn serially
// so the draw sequence is reproducible, and returns them with their runs.
// The runs fan over concurrent execution slots (runner.RunBatch); per-run
// noise streams keep them identical to a serial loop.
func (s *Session) sample(d draws, clusterName, benchName string, gb float64, n int) ([]conf.Config, []sparksim.AppResult, error) {
	app, err := workloads.ByName(benchName)
	if err != nil {
		return nil, nil, err
	}
	r, err := s.runner(clusterName, fmt.Sprintf("%s/%s/%s/%v/%d", d.stream, clusterName, benchName, gb, n))
	if err != nil {
		return nil, nil, err
	}
	space := r.Space()
	rng := newRng(s.Seed + d.seed)
	cs := make([]conf.Config, n)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	runs, _ := runner.RunBatch(r, app, cs, func(int) float64 { return gb }, 0, nil)
	return cs, runs, nil
}

// asSamples pairs sampled configurations with their latencies.
func asSamples(cs []conf.Config, runs []sparksim.AppResult) []iicp.Sample {
	out := make([]iicp.Sample, len(cs))
	for i, c := range cs {
		out[i] = iicp.Sample{Conf: c, Sec: runs[i].Sec}
	}
	return out
}

// iicpSamples collects n IICP samples of the benchmark.
func (s *Session) iicpSamples(clusterName, benchName string, gb float64, n int) ([]iicp.Sample, error) {
	cs, runs, err := s.sample(iicpDraws, clusterName, benchName, gb, n)
	if err != nil {
		return nil, err
	}
	return asSamples(cs, runs), nil
}

// benchNames returns the session benchmark names.
func (s *Session) benchNames() []string {
	apps := s.benchmarks()
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}
