package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locat/internal/obs"
	"locat/internal/runner"
	"locat/internal/service"
)

// span is one boundary crossing of one operation. Spans of an operation
// share Op; Parent is the smallest span of that operation whose interval
// encloses this one (-1 for the root). With one closed-loop client and
// GOMAXPROCS(1) only one goroutine runs at a time, so enclosure is also
// causation or displacement: a status poll served while a session computes
// shows up as a child of the session phase it interrupted, and is not
// counted in that phase's self time.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"`
	// Bytes is the heap allocated between the span's start and end (store
	// reads only): what a decoded shard costs the garbage collector.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.EndMS - s.StartMS }

// recorder keeps the spans of a traced run in memory. Boundary wrappers add
// finished spans from any goroutine; the client closes each operation with
// finishOp, which resolves parents and self times for everything recorded
// since the previous operation closed. A nil recorder records nothing.
type recorder struct {
	// enabled switches recording on for the traced stretch of a run; the
	// wrappers stay installed throughout and pass straight through when off.
	enabled atomic.Bool

	mu      sync.Mutex
	t0      time.Time
	nextID  int
	pending []span
	done    []span
	// selfSumDev is the largest |Σ self ÷ root − 1| over closed operations.
	selfSumDev float64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ms(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Millisecond)
}

// on reports whether spans are being recorded.
func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) add(name string, start, end time.Time, bytes int64) {
	if !r.on() {
		return
	}
	r.mu.Lock()
	r.pending = append(r.pending, span{ID: r.nextID, Name: name, StartMS: r.ms(start), EndMS: r.ms(end), Bytes: bytes})
	r.nextID++
	r.mu.Unlock()
}

// addTimeline records the program's own phase spans (an obs.Timeline
// snapshot) under the core module. origin is the timeline's creation time.
func (r *recorder) addTimeline(origin time.Time, spans []obs.SpanRecord) {
	for _, s := range spans {
		start := origin.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
		r.add("core."+s.Name, start, start.Add(time.Duration(s.WallMS*float64(time.Millisecond))), 0)
	}
}

// finishOp closes operation op with its root span and resolves every span
// recorded since the previous operation closed.
func (r *recorder) finishOp(op int, start, end time.Time) {
	if !r.on() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	root := span{ID: r.nextID, Name: "facade.op", StartMS: r.ms(start), EndMS: r.ms(end)}
	r.nextID++
	spans := append([]span{root}, r.pending...)
	r.pending = r.pending[:0]
	resolveSpans(spans, op)
	var selfSum float64
	for _, s := range spans {
		selfSum += s.SelfMS
	}
	if d := root.dur(); d > 0 {
		r.selfSumDev = math.Max(r.selfSumDev, math.Abs(selfSum/d-1))
	}
	r.done = append(r.done, spans...)
}

// resolveSpans assigns Op, Parent and SelfMS. spans[0] is the root; a span
// nothing else encloses (late work of the previous operation, such as a
// checkpoint delete after the job was reported) hangs off the root.
func resolveSpans(spans []span, op int) {
	const eps = 1e-6 // ms; absorbs float rounding of identical instants
	for i := range spans {
		spans[i].Op = op
		spans[i].Parent = -1
		if i == 0 {
			continue
		}
		best := 0
		for j := range spans {
			if j == i || j == 0 {
				continue
			}
			a, b := spans[j], spans[i]
			if a.StartMS > b.StartMS+eps || a.EndMS < b.EndMS-eps {
				continue
			}
			// Identical intervals nest in recording order.
			if a.dur() <= b.dur()+eps && a.dur() >= b.dur()-eps && a.ID > b.ID {
				continue
			}
			if best == 0 || a.dur() < spans[best].dur() {
				best = j
			}
		}
		spans[i].Parent = spans[best].ID
	}
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][][2]float64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := byID[s.Parent]
		children[p] = append(children[p], [2]float64{s.StartMS, s.EndMS})
	}
	for i := range spans {
		spans[i].SelfMS = selfTime(spans[i].StartMS, spans[i].EndMS, children[i])
	}
}

// selfTime is a span's duration minus the part of its interval that child
// intervals cover; overlapping children count once and parts of a child
// outside the span do not count.
func selfTime(start, end float64, children [][2]float64) float64 {
	sort.Slice(children, func(a, b int) bool { return children[a][0] < children[b][0] })
	covered, cursor := 0.0, start
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo < cursor {
			lo = cursor
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return end - start - covered
}

// write stores the run's spans for offline reading.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.done})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedHandler records one span per HTTP request, named after the matched
// route, around the service's own handler.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		route := r.Pattern
		if route == "" {
			route = r.Method + " " + r.URL.Path
		}
		rec.add("service.http "+route, start, time.Now(), 0)
	})
}

// heapAllocated is the cumulative heap allocation of the process, read
// without stopping the world.
func heapAllocated() int64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample[:])
	return int64(sample[0].Value.Uint64())
}

// tracedStore records one span per history-store call. It forwards the
// optional interfaces the service discovers by type assertion (IndexPath,
// SetMaxKeys, CheckpointStore), so the service behaves as over the bare
// FileStore.
type tracedStore struct {
	inner *service.FileStore
	rec   *recorder
}

// timed starts a span that the returned function ends.
func (t *tracedStore) timed(name string) func() {
	start := time.Now()
	return func() { t.rec.add(name, start, time.Now(), 0) }
}

func (t *tracedStore) Put(e service.Entry) error {
	defer t.timed("service.store.put")()
	return t.inner.Put(e)
}

func (t *tracedStore) Get(key string) ([]service.Entry, error) {
	if !t.rec.on() {
		return t.inner.Get(key)
	}
	before := heapAllocated()
	start := time.Now()
	es, err := t.inner.Get(key)
	t.rec.add("service.store.get", start, time.Now(), heapAllocated()-before)
	return es, err
}

func (t *tracedStore) Keys() ([]string, error) {
	defer t.timed("service.store.keys")()
	return t.inner.Keys()
}

func (t *tracedStore) IndexPath() string { return t.inner.IndexPath() }
func (t *tracedStore) SetMaxKeys(n int)  { t.inner.SetMaxKeys(n) }

func (t *tracedStore) PutCheckpoint(cp service.Checkpoint) error {
	defer t.timed("service.store.checkpoint put")()
	return t.inner.PutCheckpoint(cp)
}

func (t *tracedStore) GetCheckpoint(id string) (*service.Checkpoint, error) {
	defer t.timed("service.store.checkpoint get")()
	return t.inner.GetCheckpoint(id)
}

func (t *tracedStore) ListCheckpoints() ([]string, error) {
	defer t.timed("service.store.checkpoint list")()
	return t.inner.ListCheckpoints()
}

func (t *tracedStore) DeleteCheckpoint(id string) error {
	defer t.timed("service.store.checkpoint delete")()
	return t.inner.DeleteCheckpoint(id)
}

var (
	_ service.Store           = (*tracedStore)(nil)
	_ service.CheckpointStore = (*tracedStore)(nil)
)

// runSpans is a runner.RunObserver that records one span per backend
// execution. The observer is told a run's wall time only once it is over,
// so the span is laid back from now. Members of a batch report the batch's
// wall time split evenly, one call right after another; they are stacked
// backwards so that together they cover the batch and do not overlap.
type runSpans struct {
	rec *recorder

	mu        sync.Mutex
	batchHead time.Time // start of the most recently stacked batch member
	batchSeen time.Time // when it was reported
}

func (o *runSpans) ObserveRun(kind string, wallSec, clusterSec float64) {
	now := time.Now()
	wall := time.Duration(wallSec * float64(time.Second))
	end := now
	if kind == runner.KindBatch {
		o.mu.Lock()
		// Same batch: the previous member was reported within the time it
		// takes to report one, far less than any run lasts.
		if !o.batchSeen.IsZero() && now.Sub(o.batchSeen) < 200*time.Microsecond {
			end = o.batchHead
		}
		o.batchHead, o.batchSeen = end.Add(-wall), now
		o.mu.Unlock()
	}
	o.rec.add("runner.backend "+kind, end.Add(-wall), end, 0)
}

// spanTotals sums spans by name prefix.
type spanTotals struct {
	n      int
	ms     float64 // summed durations
	selfMS float64 // summed self times
	bytes  int64
}

// totalsOf sums the spans whose name starts with prefix.
func totalsOf(spans []span, prefix string) spanTotals {
	var t spanTotals
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			t.n++
			t.ms += s.dur()
			t.selfMS += s.SelfMS
			t.bytes += s.Bytes
		}
	}
	return t
}
