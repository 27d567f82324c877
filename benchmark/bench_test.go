package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
)

// smoke runs one workload at the smallest scale, traced: a traced run
// reports the end-to-end metrics of its untraced half beside the per-layer
// ones.
func smoke(t *testing.T, w workload) *report {
	t.Helper()
	rep, err := runWorkload(w, config{
		workload: w.name, seed: 1, seconds: 0.05, trace: true, scale: 0.02, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct {
		t.Errorf("%s: output checks failed: %v", w.name, rep.Failures)
	}
	return rep
}

// TestEmittedNamesMatchContract runs every workload and checks that what the
// program emits is what BENCHMARK.json declares, name for name and unit for
// unit.
func TestEmittedNamesMatchContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadTable))
	}
	wantE2E := map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for n := range wantE2E {
		if !name.MatchString(n) {
			t.Errorf("end-to-end metric name %q is not a contract name", n)
		}
	}
	for n := range wantLayer {
		if !name.MatchString(n) {
			t.Errorf("per-layer metric name %q is not a contract name", n)
		}
	}
	if len(wantE2E) != len(endToEndOrder) {
		t.Errorf("the program prints %d end-to-end metrics, BENCHMARK.json declares %d", len(endToEndOrder), len(wantE2E))
	}

	units := func(ms map[string]metric) map[string]string {
		out := map[string]string{}
		for n, m := range ms {
			out[n] = m.Unit
		}
		return out
	}
	for i, w := range workloadTable {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q is not a contract name", w.name)
		}
		rep := smoke(t, w)
		if got := units(rep.EndToEnd); !sameMap(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, wantE2E)
		}
		for n, m := range rep.EndToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", w.name, n, m.Value)
			}
		}
		if len(rep.Digest) != 64 {
			t.Errorf("%s: result_digest %q", w.name, rep.Digest)
		}
		if got := units(rep.PerLayer); !sameMap(got, wantLayer) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, wantLayer)
		}
	}
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {250000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !sort.Float64sAreSorted([]float64{xs[1], xs[3]}) || xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]float64
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", [][2]float64{{1, 2}, {4, 6}}, 7},
		{"overlapping count once", [][2]float64{{1, 5}, {3, 6}}, 5},
		{"nested count once", [][2]float64{{1, 8}, {2, 3}}, 3},
		{"clipped to the span", [][2]float64{{-5, 2}, {9, 20}}, 7},
		{"unordered", [][2]float64{{6, 7}, {0, 1}}, 8},
	} {
		if got := selfTime(0, 10, c.children); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestResolveSpans(t *testing.T) {
	spans := []span{
		{ID: 9, Name: "facade.op", StartMS: 0, EndMS: 100},
		{ID: 0, Name: "service.http POST /v1/jobs", StartMS: 1, EndMS: 2},
		{ID: 1, Name: "service.session", StartMS: 3, EndMS: 90},
		{ID: 2, Name: "core.phase2/search", StartMS: 10, EndMS: 80},
		{ID: 3, Name: "core.gp/hyper-resample", StartMS: 20, EndMS: 30},
		{ID: 4, Name: "service.http GET /v1/jobs/{id}", StartMS: 24, EndMS: 25},  // a poll displacing the resample
		{ID: 5, Name: "service.store.checkpoint delete", StartMS: -2, EndMS: -1}, // late work of the previous op
	}
	resolveSpans(spans, 7)
	wantParent := map[int]int{9: -1, 0: 9, 1: 9, 2: 1, 3: 2, 4: 3, 5: 9}
	wantSelf := map[int]float64{9: 12, 0: 1, 1: 17, 2: 60, 3: 9, 4: 1, 5: 1}
	var sum float64
	for _, s := range spans {
		if s.Op != 7 {
			t.Errorf("span %d: op %d, want 7", s.ID, s.Op)
		}
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, wantParent[s.ID])
		}
		if math.Abs(s.SelfMS-wantSelf[s.ID]) > 1e-9 {
			t.Errorf("span %d (%s): self %v ms, want %v", s.ID, s.Name, s.SelfMS, wantSelf[s.ID])
		}
		if s.ID != 5 {
			sum += s.SelfMS
		}
	}
	// Spans inside the root account for all of it.
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self times inside the root sum to %v ms, want 100", sum)
	}
}

func TestCalibrationArithmetic(t *testing.T) {
	// A machine running the kernel at twice the reference time is half as
	// fast: raw durations halve.
	if got := 10 * normFactor(2*calibRefMS); math.Abs(got-5) > 1e-12 {
		t.Errorf("10 ms at half speed normalises to %v, want 5", got)
	}
	c := newCalibrator()
	if i := c.sample(); i != 0 || !(c.samples[0] > 0) {
		t.Errorf("first sample: index %d, kernel %v ms", i, c.samples)
	}
	// An operation's factor takes the median of the samples within
	// calibWindow of the two that bracket it, and of no others: one sample
	// tripled by a scheduling gap does not move it.
	ref := calibRefMS
	c.samples = []float64{9 * ref, 2 * ref, 2 * ref, 2 * ref, 6 * ref, 2 * ref, 2 * ref, 9 * ref, 9 * ref}
	if got := c.factor(3, 4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor over samples 1..6 = %v, want 0.5", got)
	}
	// At the ends the window is clipped, not wrapped: samples 0..3.
	if got := c.factor(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor over samples 0..3 = %v, want 0.5", got)
	}
	if got := c.factor(7, 8); math.Abs(got-1/5.5) > 1e-12 {
		t.Errorf("factor over samples 5..8 (2, 2, 9, 9 × ref) = %v, want 1/5.5", got)
	}
	c.samples = []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	p50, ratio := c.spread()
	if p50 != 1 || ratio != 1 {
		t.Errorf("spread of ten 1s and a 2: p50 %v ratio %v, want 1 and 1 (p90 = 1)", p50, ratio)
	}
	c.samples = []float64{1, 1, 1, 2, 2, 2}
	if _, ratio = c.spread(); ratio != 2 {
		t.Errorf("spread of a run that halved its speed midway: ratio %v, want 2", ratio)
	}
}
