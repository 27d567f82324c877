// Package obs is the observability substrate of the repository: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms with quantile estimation, exposed in the Prometheus text
// format) and a per-session span tracer that records where a tuning
// session's seconds went (trace.go).
//
// The package deliberately has no dependencies beyond the standard library
// and is safe for concurrent use throughout: metrics are written from the
// execution hot path (every sample run charges a counter and a histogram)
// and read by /metrics scrapes at arbitrary times. Writers never take a
// lock — counters, gauges and histogram buckets are single atomics — so
// instrumentation cannot serialize the worker pools it observes.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates v (must be non-negative for Prometheus semantics; not
// enforced).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add accumulates v (negative values allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= v, with an implicit +Inf overflow bucket.
// Buckets, count and sum are individual atomics, so Observe is lock-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given (sorted, ascending) upper
// bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket where the cumulative count crosses q·N. The estimate is
// exact to within the width of that bucket; values in the +Inf overflow
// bucket clamp to the largest finite bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n >= rank && n > 0 {
			if i >= len(h.bounds) { // overflow bucket: no finite upper bound
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / n
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// DurationBuckets cover request/run latencies from 1 ms to 100 s.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// ClusterSecBuckets cover per-run simulated cluster seconds: individual
// Spark SQL runs range from seconds to hours.
var ClusterSecBuckets = []float64{
	1, 5, 15, 60, 300, 900, 1800, 3600, 2 * 3600, 4 * 3600, 12 * 3600,
}

// metricKind discriminates exposition formats.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindCounter:
		return "counter"
	}
	return "gauge"
}

// series is one registered metric instance (a name plus one label set).
type series struct {
	name    string
	labels  string // rendered {k="v",...} or ""
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	help string
	kind metricKind
}

// Registry is a set of named metrics. Registration methods return the
// existing instance when called again with the same name and labels, so
// call sites can resolve metrics lazily without caching them; the returned
// Counter/Gauge/Histogram handles are lock-free to update.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[string]*series // keyed by name + rendered labels
	order    []string           // registration order of series keys
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, series: map[string]*series{}}
}

// renderLabels renders k/v pairs as a stable exposition label string.
// Pairs are sorted by key; values are escaped per the text format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value for the text exposition; built once, as
// every metric lookup renders its labels.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// register resolves or creates a series, enforcing one kind per name.
func (r *Registry) register(name, help string, kind metricKind, kv []string, mk func() *series) *series {
	labels := renderLabels(kv)
	key := name + labels
	r.mu.RLock()
	s, ok := r.series[key]
	r.mu.RUnlock()
	if ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
	} else {
		r.families[name] = &family{help: help, kind: kind}
	}
	s = mk()
	s.name, s.labels, s.kind = name, labels, kind
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter resolves (or registers) a counter. kv is an alternating
// key/value label list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	s := r.register(name, help, kindCounter, kv, func() *series { return &series{counter: &Counter{}} })
	return s.counter
}

// Gauge resolves (or registers) a gauge.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	s := r.register(name, help, kindGauge, kv, func() *series { return &series{gauge: &Gauge{}} })
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time (pool
// occupancy, queue depth). fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	r.register(name, help, kindGaugeFunc, kv, func() *series { return &series{gaugeFn: fn} })
}

// Histogram resolves (or registers) a fixed-bucket histogram over the given
// upper bounds (nil selects DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	s := r.register(name, help, kindHistogram, kv, func() *series { return &series{hist: newHistogram(bounds)} })
	return s.hist
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), grouped by family in name order with HELP/TYPE
// headers. Histograms expose cumulative _bucket series plus _sum, _count
// and estimated p50/p95/p99 quantile gauges (as <name>_p50 families, since
// the plain text format has no native quantile type for histograms).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	keys := append([]string(nil), r.order...)
	byFamily := map[string][]*series{}
	var names []string
	for _, k := range keys {
		s := r.series[k]
		if _, ok := byFamily[s.name]; !ok {
			names = append(names, s.name)
		}
		byFamily[s.name] = append(byFamily[s.name], s)
	}
	families := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		families[n] = f
	}
	r.mu.RUnlock()

	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind)
		ss := byFamily[name]
		sort.Slice(ss, func(a, b int) bool { return ss[a].labels < ss[b].labels })
		for _, s := range ss {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(s.counter.Value()))
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(s.gauge.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(s.gaugeFn()))
			case kindHistogram:
				writeHistogram(w, name, s)
			}
		}
	}
}

func writeHistogram(w io.Writer, name string, s *series) {
	h := s.hist
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	le := func(bound string) string {
		if inner == "" {
			return `{le="` + bound + `"}`
		}
		return "{" + inner + `,le="` + bound + `"}`
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(fmtFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	if h.Count() > 0 {
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			fmt.Fprintf(w, "%s_%s%s %s\n", name, q.suffix, s.labels, fmtFloat(h.Quantile(q.q)))
		}
	}
}

// fmtFloat renders a float the way the exposition format expects: integral
// values without an exponent or trailing zeros.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
