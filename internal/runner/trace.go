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
// Replayer or Cache looks up and, completed by stored, the entry a sink or
// a checkpoint keeps. It borrows c.
func entryOf(kind TraceKind, app *Application, c conf.Config, dataGB float64) TraceEntry {
	return TraceEntry{Kind: kind, App: app.Name, NQ: len(app.Queries), Conf: c, DataGB: dataGB}
}

// stored completes e for keeping under stream at run index idx: the
// configuration is copied, so the entry outlives the caller's slice.
func (e TraceEntry) stored(stream string, idx uint64) TraceEntry {
	e.Stream, e.Idx = stream, idx
	e.Conf = append([]float64(nil), e.Conf...)
	return e
}

// withResult attaches a private copy of an application run's outcome.
func (e TraceEntry) withResult(res AppResult) TraceEntry {
	cp := cloneResult(res)
	e.Result = &cp
	return e
}

// cloneResult copies res down to its per-query slice, so a stored result
// and the one handed to the caller never share memory.
func cloneResult(res AppResult) AppResult {
	res.Queries = append([]QueryResult(nil), res.Queries...)
	return res
}

// noiselessOnce evaluates deterministic latencies on an inner backend and
// hands each distinct evaluation to emit once: they are pure, so a repeat
// is neither recorded nor reported again.
type noiselessOnce struct {
	mu   sync.Mutex
	seen map[string]bool
}

// mark notes key k as emitted and reports whether it was new.
func (n *noiselessOnce) mark(k string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seen[k] {
		return false
	}
	if n.seen == nil {
		n.seen = map[string]bool{}
	}
	n.seen[k] = true
	return true
}

func (n *noiselessOnce) eval(inner Runner, stream string, app *Application, c conf.Config, dataGB float64, emit func(TraceEntry)) float64 {
	sec := inner.NoiselessAppTime(app, c, dataGB)
	e := entryOf(TraceNoiseless, app, c, dataGB)
	if n.mark(e.key()) {
		e = e.stored(stream, 0)
		e.Sec = sec
		emit(e)
	}
	return sec
}

// traceTable serves executions out of trace entries by exact identity — the
// one lookup under both Replayer and Cache. Only application runs and
// noiseless evaluations are indexed; anything else a file holds (older
// versions wrote "query" lines) loads but can never match.
type traceTable struct {
	mu    sync.Mutex
	byKey map[string][]*tableEntry
}

// tableEntry is one indexed entry plus its consumption flag and, for a
// Replayer, the configuration pre-encoded onto the unit cube (nearest
// lookups scan all entries; encoding once at load keeps the scan a plain
// distance loop).
type tableEntry struct {
	TraceEntry
	enc  []float64
	used bool
}

// add indexes e, or returns nil for a kind the table does not serve.
func (t *traceTable) add(e TraceEntry) *tableEntry {
	if e.Kind != TraceApp && e.Kind != TraceNoiseless {
		return nil
	}
	if t.byKey == nil {
		t.byKey = map[string][]*tableEntry{}
	}
	te := &tableEntry{TraceEntry: e}
	k := e.key()
	t.byKey[k] = append(t.byKey[k], te)
	return te
}

// lookup finds an unconsumed entry under key k, preferring the one paid at
// run index idx, then file order. A non-consuming lookup (noiseless
// evaluations are pure and may repeat) may reuse an already-served entry.
func (t *traceTable) lookup(k string, idx uint64, consume bool) *TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// Recorder is a pass-through Runner that records every execution of an
// inner backend into a TraceSink under one stream key. It deliberately does
// NOT advertise a native batch: batches route through the generic pool so
// every individual run passes through RunAppAt and is captured with its run
// index — which is also what keeps recorded parallel sessions identical to
// serial ones on index-deterministic backends.
type Recorder struct {
	forward
	sink      *TraceSink
	stream    string
	noiseless noiselessOnce
}

// NewRecorder wraps inner, appending entries to sink under stream.
func NewRecorder(inner Runner, sink *TraceSink, stream string) *Recorder {
	return &Recorder{forward: forward{inner}, sink: sink, stream: stream}
}

// RunApp claims the next index and records the execution.
func (r *Recorder) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return r.RunAppAt(r.inner.ReserveRuns(1), app, c, dataGB)
}

// RunAppAt executes and records one application run.
func (r *Recorder) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64) AppResult {
	res := r.inner.RunAppAt(idx, app, c, dataGB)
	r.sink.add(entryOf(TraceApp, app, c, dataGB).stored(r.stream, idx).withResult(res))
	return res
}

// NoiselessAppTime evaluates and records the deterministic latency
// (deduplicated: repeated evaluations of the same point record once).
func (r *Recorder) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	return r.noiseless.eval(r.inner, r.stream, app, c, dataGB, r.sink.add)
}

// MissPolicy selects what a Replayer does when a lookup finds no recorded
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

// ReplayOptions tune a Replayer's lookup.
type ReplayOptions struct {
	// Miss selects the miss policy (default MissFail).
	Miss MissPolicy
	// Tolerance bounds the nearest-neighbor distance MissNearest accepts
	// (normalized per-dimension RMS; 0 means unbounded). Ignored under
	// MissFail.
	Tolerance float64
}

// ErrTraceMiss is the panic payload type a MissFail replay raises.
type ErrTraceMiss struct {
	Stream string
	Key    string
}

// Error describes the missing execution.
func (e *ErrTraceMiss) Error() string {
	return fmt.Sprintf("runner: trace replay miss in stream %q: no recorded execution for %s", e.Stream, e.Key)
}

// Replayer replays one stream of a recorded trace as a Runner, with the
// original backend fully detached. Lookup is exact-match first — preferring
// the entry recorded at the requested run index, then FIFO among equal
// keys — with an optional nearest-neighbor-within-tolerance fallback for
// approximate re-tuning against related recordings. Deterministic: the
// same call sequence always returns the same results.
type Replayer struct {
	space  *conf.Space
	stream string
	opts   ReplayOptions

	runs atomic.Uint64

	table   traceTable
	entries []*tableEntry // every indexed entry, for the nearest scan
}

// NewReplayerFromEntries builds a replayer over the entries of stream in a
// decoded trace (all of them when the trace holds a single stream and stream
// is ""); space must be the configuration space the trace was recorded
// over. A Factory shares one decoded trace this way, so a multi-runner
// replay decodes the file once. The entries slice is not mutated
// (per-replayer consumption state lives in private wrappers). A served
// entry whose configuration is not of the space's dimension is an error:
// the trace was recorded over another parameter table, or is not a trace.
func NewReplayerFromEntries(space *conf.Space, entries []TraceEntry, stream string, opts ReplayOptions) (*Replayer, error) {
	rp := &Replayer{space: space, stream: stream, opts: opts}
	for _, e := range entries {
		if stream != "" && e.Stream != stream {
			continue
		}
		if te := rp.table.add(e); te != nil {
			if len(e.Conf) != space.Dim() {
				return nil, fmt.Errorf("runner: trace entry %s %d of stream %q holds %d configuration values, want %d",
					e.Kind, e.Idx, e.Stream, len(e.Conf), space.Dim())
			}
			te.enc = space.Encode(conf.Config(e.Conf))
			rp.entries = append(rp.entries, te)
		}
	}
	if len(rp.entries) == 0 {
		return nil, fmt.Errorf("runner: trace holds no entries for stream %q", stream)
	}
	return rp, nil
}

// Space returns the configuration space the trace was recorded over.
func (rp *Replayer) Space() *conf.Space { return rp.space }

// ReserveRuns claims replay run indices (mirroring the recorder's counter).
func (rp *Replayer) ReserveRuns(n int) uint64 {
	if n <= 0 {
		panic("runner: ReserveRuns of non-positive count")
	}
	return rp.runs.Add(uint64(n)) - uint64(n)
}

// lookup resolves one execution. Exact key match first (the shared table's
// policy); nearest-neighbor within tolerance when allowed; otherwise the
// miss policy fires.
func (rp *Replayer) lookup(e *TraceEntry, idx uint64, consume bool) *TraceEntry {
	k := e.key()
	if hit := rp.table.lookup(k, idx, consume); hit != nil {
		return hit
	}
	if rp.opts.Miss == MissNearest {
		if pick := rp.nearest(e); pick != nil {
			return pick
		}
	}
	panic(&ErrTraceMiss{Stream: rp.stream, Key: k})
}

// nearest scans for the closest same-kind, same-application entry. It reads
// only what is fixed at load, so it needs no lock.
func (rp *Replayer) nearest(e *TraceEntry) *TraceEntry {
	want := rp.space.Encode(conf.Config(e.Conf))
	bestD := math.Inf(1)
	var best *tableEntry
	for _, c := range rp.entries {
		if c.Kind != e.Kind || c.App != e.App || c.NQ != e.NQ {
			continue
		}
		have := c.enc
		var d float64
		for i := range want {
			diff := want[i] - have[i]
			d += diff * diff
		}
		// Fold the data-size mismatch in on the same normalized scale.
		if e.DataGB > 0 || c.DataGB > 0 {
			rel := (e.DataGB - c.DataGB) / math.Max(e.DataGB, c.DataGB)
			d += rel * rel
		}
		d = math.Sqrt(d / float64(len(want)+1))
		if d < bestD {
			bestD = d
			best = c
		}
	}
	if best == nil {
		return nil
	}
	if rp.opts.Tolerance > 0 && bestD > rp.opts.Tolerance {
		return nil
	}
	return &best.TraceEntry
}

// RunApp replays the next application execution.
func (rp *Replayer) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return rp.RunAppAt(rp.ReserveRuns(1), app, c, dataGB)
}

// RunAppAt replays the application execution recorded for (app, c, dataGB),
// preferring the entry recorded at run index idx.
func (rp *Replayer) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64) AppResult {
	q := entryOf(TraceApp, app, c, dataGB)
	hit := rp.lookup(&q, idx, true)
	if hit.Result == nil {
		// A key-matched entry without its payload is a corrupted fixture;
		// serving a phantom zero-second run would silently poison the
		// replayed session.
		panic(&ErrTraceMiss{Stream: rp.stream, Key: q.key() + " (entry has no result payload)"})
	}
	return cloneResult(*hit.Result)
}

// NoiselessAppTime replays the recorded deterministic latency. The lookup
// does not consume: noiseless evaluations are pure and may repeat.
func (rp *Replayer) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	q := entryOf(TraceNoiseless, app, c, dataGB)
	return rp.lookup(&q, 0, false).Sec
}

var (
	_ Runner = (*Recorder)(nil)
	_ Runner = (*Replayer)(nil)
	_ Faulty = (*Recorder)(nil)
)
