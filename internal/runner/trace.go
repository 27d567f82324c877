package runner

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"locat/internal/conf"
)

// The trace backend persists every execution of a session — each
// (configuration, application, data size) → result pair — to a JSON-lines
// file and replays it later with the original backend detached. Replaying a
// recorded tuning session reproduces the tuner's exact trajectory (the
// search is deterministic given its seed and the observed results), which
// buys two things the paper's online setting cannot: zero-execution
// re-tuning against past runs (in the spirit of retrieval-augmented /
// zero-execution tuning), and hermetic end-to-end CI fixtures whose
// selected configurations are pinned byte-for-byte.
//
// A trace file may interleave several independent runners (a tuning
// session plus its noiseless validation runner, or many service jobs);
// each runner writes under its own stream key and replays only its stream.

// TraceKind labels one trace entry.
type TraceKind string

// Trace entry kinds.
const (
	// TraceApp is one application execution (RunApp / RunAppAt / batch).
	TraceApp TraceKind = "app"
	// TraceNoiseless is one deterministic NoiselessAppTime evaluation.
	TraceNoiseless TraceKind = "noiseless"
)

// TraceEntry is one recorded execution — the JSON-lines wire format.
type TraceEntry struct {
	// Stream separates independent runners sharing one trace file.
	Stream string `json:"stream,omitempty"`
	// Kind is the entry kind.
	Kind TraceKind `json:"kind"`
	// Idx is the run index the execution was performed at (Kind app).
	Idx uint64 `json:"idx,omitempty"`
	// App is the application name and NQ its query count (app identity —
	// a session's reduced query application is distinct from the full one).
	App string `json:"app,omitempty"`
	NQ  int    `json:"nq,omitempty"`
	// Conf is the executed configuration (natural units).
	Conf []float64 `json:"conf"`
	// DataGB is the input size of the run.
	DataGB float64 `json:"data_gb"`
	// Result holds the outcome of a TraceApp entry.
	Result *AppResult `json:"result,omitempty"`
	// Sec holds the scalar outcome of a TraceNoiseless entry.
	Sec float64 `json:"sec,omitempty"`
}

// key renders the entry's lookup identity: everything that determines the
// result except the run index (noise) — kind, app identity, configuration
// and data size. Configurations round-trip JSON exactly (encoding/json
// emits the shortest float64 representation that re-parses identically),
// so a replayed session re-derives byte-identical keys.
func (e *TraceEntry) key() string {
	var b strings.Builder
	b.WriteString(string(e.Kind))
	b.WriteByte('|')
	b.WriteString(e.App)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(e.NQ))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(e.DataGB, 'g', -1, 64))
	for _, v := range e.Conf {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

// entryOf describes one evaluation of app under c at dataGB: the identity a
// Cache looks up and, completed by stored, the entry a sink or a checkpoint
// keeps. It borrows c.
func entryOf(kind TraceKind, app *Application, c conf.Config, dataGB float64) TraceEntry {
	return TraceEntry{Kind: kind, App: app.Name, NQ: len(app.Queries), Conf: c, DataGB: dataGB}
}

// stored completes e for keeping at run index idx: the configuration is
// copied, so the entry outlives the caller's slice.
func (e TraceEntry) stored(idx uint64) TraceEntry {
	e.Idx = idx
	e.Conf = append([]float64(nil), e.Conf...)
	return e
}

// withResult attaches a private copy of an application run's outcome.
func (e TraceEntry) withResult(res AppResult) TraceEntry {
	cp := resultInto(res, nil)
	e.Result = &cp
	return e
}

// resultInto copies res down to its per-query slice, appended to into[:0]
// (nil allocates it), so a stored result and the one handed to the caller
// never share memory.
func resultInto(res AppResult, into []QueryResult) AppResult {
	res.Queries = append(into[:0], res.Queries...)
	return res
}

// traceTable serves executions out of trace entries by exact identity —
// the lookup under Cache, and so under record, replay and resume. Only
// application runs and noiseless evaluations are indexed; anything else a
// file holds (older versions wrote "query" lines) loads but can never
// match. The table does not lock: its Cache serializes every call.
type traceTable struct {
	byKey map[string][]*tableEntry
}

// tableEntry is one indexed entry plus its consumption flag.
type tableEntry struct {
	TraceEntry
	used bool
}

// served reports whether a table indexes entries of kind k.
func served(k TraceKind) bool { return k == TraceApp || k == TraceNoiseless }

// add indexes e, unless the table does not serve its kind.
func (t *traceTable) add(e TraceEntry) {
	if !served(e.Kind) {
		return
	}
	if t.byKey == nil {
		t.byKey = map[string][]*tableEntry{}
	}
	k := e.key()
	t.byKey[k] = append(t.byKey[k], &tableEntry{TraceEntry: e})
}

// lookup finds an unconsumed entry under key k, preferring the one paid at
// run index idx, then file order. A non-consuming lookup (noiseless
// evaluations are pure and may repeat) may reuse an already-served entry.
func (t *traceTable) lookup(k string, idx uint64, consume bool) *TraceEntry {
	cands := t.byKey[k]
	var pick *tableEntry
	for _, c := range cands {
		if !c.used && c.Idx == idx {
			pick = c
			break
		}
	}
	if pick == nil {
		for _, c := range cands {
			if !c.used {
				pick = c
				break
			}
		}
	}
	if pick == nil && !consume && len(cands) > 0 {
		pick = cands[0]
	}
	if pick == nil {
		return nil
	}
	if consume {
		pick.used = true
	}
	return &pick.TraceEntry
}

// readTrace decodes a JSON-lines trace, gzip-compressed when gz is set —
// the one decoder behind TraceEntries and so the replay Factory.
func readTrace(r io.Reader, gz bool) ([]TraceEntry, error) {
	if gz {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		r = zr
	}
	var entries []TraceEntry
	dec := json.NewDecoder(r)
	for {
		var e TraceEntry
		if err := dec.Decode(&e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("runner: bad trace entry: %w", err)
		}
		entries = append(entries, e)
	}
}

// TraceEntries reads every entry of the trace file at path (".gz" traces
// are decompressed transparently).
func TraceEntries(path string) ([]TraceEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTrace(f, strings.HasSuffix(path, ".gz"))
}

// TraceSink collects the entries of one or more recorders and writes them
// out as JSON lines. Entries are buffered and written sorted by (stream,
// kind, idx) on Close, so recording the same session twice produces
// byte-identical files regardless of worker interleaving — what makes
// committed fixture traces reviewable and regenerable.
type TraceSink struct {
	mu      sync.Mutex
	entries []TraceEntry
	w       io.WriteCloser
}

// CreateTraceSink buffers entries destined for the file at path. A ".gz"
// suffix selects transparent gzip compression.
func CreateTraceSink(path string) (*TraceSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.WriteCloser = f
	if strings.HasSuffix(path, ".gz") {
		w = &gzipFileWriter{f: f, zw: gzip.NewWriter(f)}
	}
	return &TraceSink{w: w}, nil
}

// gzipFileWriter closes both the gzip stream and the underlying file.
type gzipFileWriter struct {
	f  *os.File
	zw *gzip.Writer
}

func (g *gzipFileWriter) Write(p []byte) (int, error) { return g.zw.Write(p) }
func (g *gzipFileWriter) Close() error {
	if err := g.zw.Close(); err != nil {
		g.f.Close()
		return err
	}
	return g.f.Close()
}

// add appends one entry; safe for concurrent recorders and batch workers.
func (s *TraceSink) add(e TraceEntry) {
	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
}

// Close sorts and writes the buffered entries and closes the destination.
func (s *TraceSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	sort.SliceStable(s.entries, func(a, b int) bool {
		ea, eb := &s.entries[a], &s.entries[b]
		if ea.Stream != eb.Stream {
			return ea.Stream < eb.Stream
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		if ea.Idx != eb.Idx {
			return ea.Idx < eb.Idx
		}
		return ea.key() < eb.key()
	})
	bw := bufio.NewWriter(s.w)
	enc := json.NewEncoder(bw)
	for i := range s.entries {
		if err := enc.Encode(&s.entries[i]); err != nil {
			s.w.Close()
			s.w = nil
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		s.w.Close()
		s.w = nil
		return err
	}
	err := s.w.Close()
	s.w = nil
	return err
}

// NewRecorder wraps inner in a Cache with no prior entries that records
// every fresh execution into sink under stream. Batches route through the
// generic pool, so every run passes through RunAppAt and is captured with
// its run index — which is also what keeps recorded parallel sessions
// identical to serial ones on index-deterministic backends. Like every
// Cache it does not record failed (zero-second) runs; the Factory records
// only the bare simulator, whose runs never fail.
func NewRecorder(inner Runner, sink *TraceSink, stream string) *Cache {
	return NewCache(inner, nil, func(e TraceEntry) {
		e.Stream = stream
		sink.add(e)
	})
}

// MissPolicy selects what a replay does when a lookup finds no recorded
// entry for the requested execution.
type MissPolicy int

const (
	// MissFail panics with a diagnostic — the fixture contract: a replayed
	// session diverging from its recording is a determinism bug, and
	// failing loudly is what pins CI to the committed trajectory.
	MissFail MissPolicy = iota
	// MissNearest falls back to the recorded entry of the same kind and
	// application with the nearest configuration (normalized L2 over the
	// unit cube, data size folded in) within Tolerance.
	MissNearest
)

// ReplayOptions tune a replay's lookup.
type ReplayOptions struct {
	// Miss selects the miss policy (default MissFail).
	Miss MissPolicy
	// Tolerance bounds the nearest-neighbor distance MissNearest accepts
	// (normalized per-dimension RMS; 0 means unbounded). Ignored under
	// MissFail.
	Tolerance float64
}

// ErrTraceMiss is the panic payload type a replay raises for an execution
// it holds no result for.
type ErrTraceMiss struct {
	Stream string
	Key    string
}

// Error describes the missing execution.
func (e *ErrTraceMiss) Error() string {
	return fmt.Sprintf("runner: trace replay miss in stream %q: no recorded execution for %s", e.Stream, e.Key)
}

// NewReplayerFromEntries replays the entries of stream in a decoded trace
// (all of them when stream is "") with the original backend detached: a
// Cache whose table is the trace, over a miss backend that executes
// nothing. Lookup prefers the entry recorded at the requested run index,
// then file order; the same call sequence always returns the same results.
// space must be the one the trace was recorded over: a served entry of
// another dimension is an error. The entries slice is not mutated, so a
// Factory decodes a multi-runner trace once.
func NewReplayerFromEntries(space *conf.Space, entries []TraceEntry, stream string, opts ReplayOptions) (*Cache, error) {
	m := &miss{space: space, stream: stream, opts: opts}
	for _, e := range entries {
		if (stream != "" && e.Stream != stream) || !served(e.Kind) {
			continue
		}
		if len(e.Conf) != space.Dim() {
			return nil, fmt.Errorf("runner: trace entry %s %d of stream %q holds %d configuration values, want %d",
				e.Kind, e.Idx, e.Stream, len(e.Conf), space.Dim())
		}
		m.entries = append(m.entries, e)
		m.enc = append(m.enc, space.Encode(conf.Config(e.Conf)))
	}
	if len(m.entries) == 0 {
		return nil, fmt.Errorf("runner: trace holds no entries for stream %q", stream)
	}
	return NewCache(m, m.entries, nil), nil
}

// miss is the backend under a replaying Cache: it executes nothing and
// answers what the Cache's exact table does not hold — the nearest entry
// within tolerance under MissNearest, otherwise an *ErrTraceMiss panic. It
// owns the replay's run counter and the stream's entries, with their
// configurations pre-encoded onto the unit cube (the nearest scan is then a
// plain distance loop). Everything it reads is fixed at load, so it needs
// no lock.
type miss struct {
	space  *conf.Space
	stream string
	opts   ReplayOptions
	runs   atomic.Uint64

	entries []TraceEntry
	enc     [][]float64 // entries[i].Conf on the unit cube
}

// Space returns the configuration space the trace was recorded over.
func (m *miss) Space() *conf.Space { return m.space }

// ReserveRuns claims replay run indices (mirroring the recording's counter).
func (m *miss) ReserveRuns(n int) uint64 {
	if n <= 0 {
		panic("runner: ReserveRuns of non-positive count")
	}
	return m.runs.Add(uint64(n)) - uint64(n)
}

// RunApp answers the next application execution.
func (m *miss) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return m.RunAppAt(m.ReserveRuns(1), app, c, dataGB, nil)
}

// RunAppAt answers an application execution the exact table missed — or
// matched to an entry without its payload: a corrupted fixture, and
// serving a phantom zero-second run would silently poison the replayed
// session.
func (m *miss) RunAppAt(_ uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	q := entryOf(TraceApp, app, c, dataGB)
	return resultInto(*m.find(&q).Result, into)
}

// NoiselessAppTime answers a deterministic evaluation the table missed.
func (m *miss) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	q := entryOf(TraceNoiseless, app, c, dataGB)
	return m.find(&q).Sec
}

// find returns the entry that answers q under the miss policy, or panics.
func (m *miss) find(q *TraceEntry) *TraceEntry {
	var hit *TraceEntry
	if m.opts.Miss == MissNearest {
		hit = m.nearest(q)
	}
	if hit == nil || (q.Kind == TraceApp && hit.Result == nil) {
		panic(&ErrTraceMiss{Stream: m.stream, Key: q.key()})
	}
	return hit
}

// nearest scans for the closest same-kind, same-application entry within
// tolerance.
func (m *miss) nearest(q *TraceEntry) *TraceEntry {
	want := m.space.Encode(conf.Config(q.Conf))
	bestD := math.Inf(1)
	best := -1
	for i := range m.entries {
		c := &m.entries[i]
		if c.Kind != q.Kind || c.App != q.App || c.NQ != q.NQ {
			continue
		}
		have := m.enc[i]
		var d float64
		for j := range want {
			diff := want[j] - have[j]
			d += diff * diff
		}
		// Fold the data-size mismatch in on the same normalized scale.
		if q.DataGB > 0 || c.DataGB > 0 {
			rel := (q.DataGB - c.DataGB) / math.Max(q.DataGB, c.DataGB)
			d += rel * rel
		}
		d = math.Sqrt(d / float64(len(want)+1))
		if d < bestD {
			bestD = d
			best = i
		}
	}
	if best < 0 || (m.opts.Tolerance > 0 && bestD > m.opts.Tolerance) {
		return nil
	}
	return &m.entries[best]
}
