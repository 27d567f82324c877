package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "runs", "kind", "app")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same name+labels resolves to the same instance.
	if r.Counter("runs_total", "runs", "kind", "app") != c {
		t.Fatal("re-registration returned a new counter")
	}
	// Different labels are a different series.
	c2 := r.Counter("runs_total", "runs", "kind", "query")
	if c2 == c || c2.Value() != 0 {
		t.Fatal("label set not independent")
	}

	g := r.Gauge("depth", "queue depth")
	g.Add(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("m", "m")
}

// TestHistogramQuantileOracle pins the bucket-interpolated quantile
// estimate against the exact sorted-slice quantile: the two must agree to
// within the width of the bucket the quantile lands in.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := DurationBuckets
	for trial := 0; trial < 5; trial++ {
		h := newHistogram(bounds)
		n := 2000
		vals := make([]float64, n)
		for i := range vals {
			// Log-uniform over the bucket range, plus some overflow values.
			v := math.Exp(rng.Float64()*math.Log(5000)) * 0.001
			vals[i] = v
			h.Observe(v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			// The estimator interpolates inside the bucket where the
			// cumulative count crosses q·N — the bucket holding the
			// ceil(q·N)-th observation.
			exact := vals[int(math.Ceil(q*float64(n)))-1]
			est := h.Quantile(q)
			// Tolerance: the width of the bucket holding the exact value.
			i := sort.SearchFloat64s(bounds, exact)
			lo, hi := 0.0, math.Inf(1)
			if i > 0 {
				lo = bounds[i-1]
			}
			if i < len(bounds) {
				hi = bounds[i]
			} else {
				hi = bounds[len(bounds)-1] // overflow clamps
				lo = hi
			}
			if est < lo-1e-12 || est > hi+1e-12 {
				t.Fatalf("trial %d q%.2f: estimate %v outside bucket [%v,%v] of exact %v",
					trial, q, est, lo, hi, exact)
			}
		}
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
	h.Observe(100) // overflow bucket
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
	if h.Count() != 1 || h.Sum() != 100 {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("locat_runs_total", "Executions.", "kind", "app").Add(3)
	r.Counter("locat_runs_total", "Executions.", "kind", "query").Add(1)
	r.Gauge("locat_jobs", "Jobs by state.", "state", "queued").Add(2)
	r.GaugeFunc("locat_up", "Liveness.", func() float64 { return 1 })
	h := r.Histogram("locat_submit_seconds", "Submit latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP locat_runs_total Executions.",
		"# TYPE locat_runs_total counter",
		`locat_runs_total{kind="app"} 3`,
		`locat_runs_total{kind="query"} 1`,
		`locat_jobs{state="queued"} 2`,
		"# TYPE locat_up gauge",
		"locat_up 1",
		"# TYPE locat_submit_seconds histogram",
		`locat_submit_seconds_bucket{le="0.1"} 1`,
		`locat_submit_seconds_bucket{le="1"} 2`,
		`locat_submit_seconds_bucket{le="+Inf"} 3`,
		"locat_submit_seconds_sum 5.55",
		"locat_submit_seconds_count 3",
		"locat_submit_seconds_p50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families appear in sorted name order, each exactly once.
	if strings.Count(out, "# TYPE locat_runs_total") != 1 {
		t.Fatalf("family header duplicated:\n%s", out)
	}
	if strings.Index(out, "# HELP locat_jobs") > strings.Index(out, "# HELP locat_runs_total") {
		t.Fatalf("families not name-sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `m{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

// TestConcurrentMetrics hammers writers against scrapes; run under -race.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits", "worker", "a") // visible from the first scrape
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits_total", "hits", "worker", string(rune('a'+w)))
			h := r.Histogram("lat_seconds", "latency", nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		if !strings.Contains(b.String(), "hits_total") {
			t.Fatal("scrape missing family")
		}
	}
	close(stop)
	wg.Wait()
}
