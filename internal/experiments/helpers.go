package experiments

import (
	"fmt"
	"math/rand"

	"locat/internal/conf"
	"locat/internal/iicp"
	"locat/internal/qcsa"
	"locat/internal/workloads"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// hours formats simulated seconds as hours.
func hours(sec float64) string { return fmt.Sprintf("%.1f", sec/3600) }

// iicpSamples collects n random-configuration samples of the benchmark over
// concurrent execution slots (qcsa.Collect).
func (s *Session) iicpSamples(clusterName, benchName string, gb float64, n int) ([]iicp.Sample, error) {
	app, err := workloads.ByName(benchName)
	if err != nil {
		return nil, err
	}
	r, err := s.runner(clusterName, fmt.Sprintf("iicp/%s/%s/%v/%d", clusterName, benchName, gb, n))
	if err != nil {
		return nil, err
	}
	space := r.Space()
	rng := newRng(s.Seed + 13)
	cs := make([]conf.Config, n)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	runs := qcsa.Collect(r, app, cs, gb, 0)
	out := make([]iicp.Sample, n)
	for i, r := range runs {
		out[i] = iicp.Sample{Conf: cs[i], Sec: r.Sec}
	}
	return out, nil
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

// avg returns the arithmetic mean.
func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
