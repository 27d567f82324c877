package runner

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"locat/internal/sparksim"
)

// oldQueryLine is a single-query entry as versions before the one-run-path
// runner wrote it; such lines must keep loading and must never be served.
const oldQueryLine = `{"stream":"s","kind":"query","idx":3,"query":"Q2","conf":[1,2],"data_gb":100,"query_res":{"Name":"Q2","Sec":4.5}}` + "\n"

// fixtureLines returns the first line of every committed trace fixture,
// its per-query results cut to the first two: a whole line is several KB,
// and the fuzz engine spends its budget minimizing inputs that size.
func fixtureLines(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../../testdata/*.trace.gz")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no committed trace fixtures found: %v", err)
	}
	var out [][]byte
	for _, p := range paths {
		entries, err := TraceEntries(p)
		if err != nil || len(entries) == 0 || entries[0].Result == nil {
			tb.Fatalf("%s: %d entries, %v", p, len(entries), err)
		}
		e := entries[0]
		e.Result.Queries = e.Result.Queries[:2]
		line, err := json.Marshal(&e)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, append(line, '\n'))
	}
	return out
}

func gzipped(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// canonical renders entries as a sorted multiset of their JSON lines: the
// sink reorders on Close, so a round trip preserves the set, not the order.
func canonical(t *testing.T, entries []TraceEntry) []string {
	t.Helper()
	out := make([]string, len(entries))
	for i := range entries {
		b, err := json.Marshal(&entries[i])
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// shortConfLine is an application run whose configuration is not 38 long: it
// decodes, and NewReplayerFromEntries used to panic on it in space.Encode.
const shortConfLine = `{"stream":"s","kind":"app","idx":0,"app":"a","nq":1,"conf":[1,2,3],"data_gb":100,"result":{"Sec":9}}` + "\n"

// FuzzReadTrace drives the one trace decoder, plain and gzip: it never
// panics, whatever it accepts survives TraceSink → readTrace unchanged,
// NewReplayerFromEntries never panics on it, and the lookup table built from
// it serves only application runs and noiseless evaluations, each under
// exactly the identity asked for.
func FuzzReadTrace(f *testing.F) {
	for _, head := range fixtureLines(f) {
		f.Add(head, false)
		f.Add(gzipped(f, head), true)
		f.Add(append([]byte(oldQueryLine), head...), false)
	}
	f.Add([]byte(oldQueryLine), false)
	f.Add([]byte(shortConfLine), false)
	f.Add([]byte(`{"kind":"noiseless","app":"a","nq":1,"conf":[],"data_gb":1,"sec":2}`), false)
	f.Add([]byte(`{"kind":"app|a","app":"b","conf":null,"data_gb":0,"result":{}}`), false)
	f.Add([]byte("{"), false)
	f.Add([]byte("\x1f\x8b"), true)

	space := sparksim.ARM().Space()
	f.Fuzz(func(t *testing.T, data []byte, gz bool) {
		entries, err := readTrace(bytes.NewReader(data), gz)
		if err != nil {
			return
		}
		// A configuration of the wrong length is an error, never a panic.
		_, _ = NewReplayerFromEntries(space, entries, "", ReplayOptions{})
		sink, buf := memSink()
		for _, e := range entries {
			sink.add(e)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := readTrace(buf, false)
		if err != nil {
			t.Fatalf("re-encoded trace does not load: %v", err)
		}
		if want, got := canonical(t, entries), canonical(t, again); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the trace:\n got %v\nwant %v", got, want)
		}

		var table traceTable
		for _, e := range entries {
			table.add(e)
		}
		for _, e := range entries {
			for _, kind := range []TraceKind{TraceApp, TraceNoiseless} {
				q := e
				q.Kind = kind
				hit := table.lookup(q.key(), e.Idx, false)
				if hit == nil {
					if e.Kind == kind {
						t.Fatalf("indexed %s entry not found under its own identity: %+v", kind, e)
					}
					continue
				}
				if hit.Kind != kind || hit.App != e.App || hit.NQ != e.NQ || hit.key() != q.key() {
					t.Fatalf("lookup for %s %q/%d served a foreign entry: %+v", kind, e.App, e.NQ, *hit)
				}
			}
		}
	})
}

// Old traces may hold "kind":"query" lines. They load, they are never
// served, and a stream holding nothing else is an empty stream.
func TestOldQueryLinesLoadAndNeverMatch(t *testing.T) {
	cl := sparksim.ARM()
	sink, buf := memSink()
	rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s")
	app := batchApp()
	c := cl.Space().Default()
	want := rec.RunApp(app, c, 100)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// The same identity as the app run, but as a single-query entry.
	var e TraceEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	e.Kind, e.Result = "query", nil
	line, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	trace := append(append(append([]byte(nil), line...), '\n'), buf.Bytes()...)

	entries, err := readTrace(bytes.NewReader(trace), false)
	if err != nil || len(entries) != 2 {
		t.Fatalf("old trace: %d entries, %v", len(entries), err)
	}
	rp, err := NewReplayerFromEntries(cl.Space(), entries, "s", ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.RunApp(app, c, 100); !reflect.DeepEqual(got, want) {
		t.Fatal("app run not replayed past the query line")
	}
	func() {
		defer func() {
			if _, ok := recover().(*ErrTraceMiss); !ok {
				t.Fatal("second lookup was served by the query line")
			}
		}()
		rp.RunApp(app, c, 100)
	}()
	if _, err := NewReplayerFromEntries(cl.Space(), entries[:1], "s", ReplayOptions{}); err == nil {
		t.Fatal("a stream of query lines only must be empty")
	}
	if cache := NewCache(newFakeBackend(0), entries[:1], nil); cache.RunApp(app, c, 100).Sec == 0 || cache.ResumedRuns() != 0 {
		t.Fatal("cache served a query line")
	}
}

// FuzzParseSpec: the backend spec parser never panics, and an accepted spec
// is one of the four families with its options inside their documented
// ranges. (It never materializes a runner: record= would create the file.)
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "sim", "sparksim", "record=sess.trace.gz", "replay=sess.trace.gz",
		"replay=PATH,miss=nearest", "replay=PATH,miss=nearest,tol=0.05", "replay=x,miss=fail",
		"replay=testdata/bench-fig8-quick.trace.gz", "sparkrest=http://spark-gateway:6066",
		"replay=x,tol=NaN", "replay=x,tol=-1", "bogus",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fac, err := ParseSpec(spec)
		if err != nil {
			return
		}
		switch fac.kind {
		case "sim":
		case "record", "replay":
			if fac.path == "" {
				t.Fatalf("%q: accepted without a trace path", spec)
			}
		case "sparkrest":
			if fac.url == "" {
				t.Fatalf("%q: accepted without a URL", spec)
			}
		default:
			t.Fatalf("%q: unknown kind %q", spec, fac.kind)
		}
		if tol := fac.ropt.Tolerance; !(tol >= 0) {
			t.Fatalf("%q: tolerance %v outside [0, +Inf]", spec, tol)
		}
		if m := fac.ropt.Miss; m != MissFail && m != MissNearest {
			t.Fatalf("%q: miss policy %d", spec, m)
		}
	})
}

// FuzzParseChaosSpec: the chaos spec parser never panics, and accepted
// options are inside their documented ranges.
func FuzzParseChaosSpec(f *testing.F) {
	for _, s := range []string{
		"", "drop=0.3,maxfail=2,delay=0.1,delayms=50,seed=7", "failafter=40,seed=1", "killafter=25,seed=1",
		"drop=NaN", "delay=1e-400", "delayms=9223372036854775807", "seed=-9223372036854775808", "drop", "wat=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseChaosSpec(spec)
		if err != nil {
			return
		}
		if o == nil {
			if spec != "" {
				t.Fatalf("%q: nil options for a non-empty spec", spec)
			}
			return
		}
		for name, p := range map[string]float64{"drop": o.DropRate, "delay": o.DelayRate} {
			if !(p >= 0 && p <= 1) { // NaN fails too
				t.Fatalf("%q: %s probability %v outside [0, 1]", spec, name, p)
			}
		}
		if o.MaxConsecutive < 0 || o.FailAfter < 0 || o.KillAfter < 0 || o.Delay < 0 {
			t.Fatalf("%q: negative knob in %+v", spec, *o)
		}
		// Accepted options must be usable as they are.
		NewChaos(newFakeBackend(0), *o)
	})
}
