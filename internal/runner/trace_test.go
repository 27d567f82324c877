package runner

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"locat/internal/conf"
	"locat/internal/sparksim"
)

// memSink is a TraceSink writing to a buffer.
func memSink() (*TraceSink, *bytes.Buffer) {
	var buf bytes.Buffer
	return &TraceSink{w: nopCloser{&buf}}, &buf
}

// newReplayer replays stream from the JSON-lines trace in r.
func newReplayer(space *conf.Space, r io.Reader, stream string, opts ReplayOptions) (*Cache, error) {
	entries, err := readTrace(r, false)
	if err != nil {
		return nil, err
	}
	return NewReplayerFromEntries(space, entries, stream, opts)
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// driveSession executes a deterministic mixed workload (serial runs, a
// parallel batch, noiseless evaluations) against r and returns everything
// observed.
func driveSession(t *testing.T, r Runner) (apps []AppResult, noiseless []float64) {
	t.Helper()
	app := batchApp()
	space := r.Space()
	cs := randomConfigs(space, 6, 21)
	for _, c := range cs[:2] {
		apps = append(apps, r.RunApp(app, c, 100))
	}
	batch, done := RunBatch(r, app, cs[2:], func(i int) float64 { return 100 + float64(i)*20 }, 3, nil)
	if done != len(cs[2:]) {
		t.Fatalf("batch incomplete: %d", done)
	}
	apps = append(apps, batch...)
	noiseless = append(noiseless,
		r.NoiselessAppTime(app, space.Default(), 100),
		r.NoiselessAppTime(app, cs[0], 100),
		r.NoiselessAppTime(app, space.Default(), 100), // repeat: deduped on record, replayable twice
	)
	return apps, noiseless
}

// Recording a session and replaying the trace with the simulator detached
// must reproduce every result bit-for-bit, including parallel batches.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	cl := sparksim.ARM()
	sink, buf := memSink()
	rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s1")
	wantApps, wantNoiseless := driveSession(t, rec)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := newReplayer(cl.Space(), bytes.NewReader(buf.Bytes()), "s1", ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotApps, gotNoiseless := driveSession(t, rp)
	if !reflect.DeepEqual(gotApps, wantApps) {
		t.Fatal("replayed app results differ from recording")
	}
	if !reflect.DeepEqual(gotNoiseless, wantNoiseless) {
		t.Fatal("replayed noiseless results differ from recording")
	}
}

// Recording the same session twice must produce byte-identical trace files
// even when batch workers interleave differently — committed fixtures must
// be regenerable.
func TestTraceFilesAreDeterministic(t *testing.T) {
	cl := sparksim.ARM()
	record := func() []byte {
		sink, buf := memSink()
		rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s1")
		driveSession(t, rec)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := record(), record()
	if !bytes.Equal(a, b) {
		t.Fatal("two recordings of the same session differ byte-for-byte")
	}
}

// A replay miss under the default policy must fail loudly with a
// diagnostic — that failure is what pins hermetic CI jobs to the recorded
// trajectory. An entry that matches but carries no result payload is a
// corrupted fixture and fails the same way under either policy: it must
// never replay as a zero-second run.
func TestTraceReplayMissFails(t *testing.T) {
	cl := sparksim.ARM()
	space := cl.Space()
	sink, buf := memSink()
	rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s1")
	app := batchApp()
	rec.RunApp(app, space.Default(), 100)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readTrace(bytes.NewReader(buf.Bytes()), false)
	if err != nil || len(entries) != 1 {
		t.Fatalf("recorded trace: %d entries, %v", len(entries), err)
	}
	noPayload := append([]TraceEntry(nil), entries...)
	noPayload[0].Result = nil

	for _, tc := range []struct {
		name    string
		entries []TraceEntry
		opts    ReplayOptions
		c       conf.Config
	}{
		{"unrecorded", entries, ReplayOptions{}, randomConfigs(space, 1, 99)[0]},
		{"no-payload/fail", noPayload, ReplayOptions{}, space.Default()},
		{"no-payload/nearest", noPayload, ReplayOptions{Miss: MissNearest}, space.Default()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := NewReplayerFromEntries(space, tc.entries, "s1", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("replay did not fail")
				}
				if _, ok := r.(*ErrTraceMiss); !ok {
					t.Fatalf("panic payload %T, want *ErrTraceMiss", r)
				}
			}()
			rp.RunApp(app, tc.c, 100)
		})
	}
}

// miss=nearest must serve the closest recorded configuration within the
// tolerance.
func TestTraceReplayNearest(t *testing.T) {
	cl := sparksim.ARM()
	space := cl.Space()
	sink, buf := memSink()
	rec := NewRecorder(NewSim(sparksim.New(cl, 7)), sink, "s1")
	app := batchApp()
	base := space.Default()
	want := rec.RunApp(app, base, 100)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := newReplayer(space, bytes.NewReader(buf.Bytes()), "s1", ReplayOptions{Miss: MissNearest})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb one parameter slightly: nearest lookup must land on base.
	near := base.Clone()
	near[0] *= 1.01
	if got := rp.RunApp(app, near, 100); got.Sec != want.Sec {
		t.Fatalf("nearest replay returned %.3f, want %.3f", got.Sec, want.Sec)
	}

	// A tight tolerance must reject a far-away point.
	rp2, err := newReplayer(space, bytes.NewReader(buf.Bytes()), "s1", ReplayOptions{Miss: MissNearest, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	far := randomConfigs(space, 1, 5)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-tolerance nearest lookup did not fail")
			}
		}()
		rp2.RunApp(app, far, 100)
	}()
}

// Streams must be isolated: two recorders sharing a sink replay
// independently, and a replayer refuses a stream with no entries.
func TestTraceStreams(t *testing.T) {
	cl := sparksim.ARM()
	sink, buf := memSink()
	app := batchApp()
	c := cl.Space().Default()
	recA := NewRecorder(NewSim(sparksim.New(cl, 1)), sink, "a")
	recB := NewRecorder(NewSim(sparksim.New(cl, 2)), sink, "b")
	wantA := recA.RunApp(app, c, 100)
	wantB := recB.RunApp(app, c, 100)
	if wantA.Sec == wantB.Sec {
		t.Fatal("test needs distinct per-stream results")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		stream string
		want   AppResult
	}{{"a", wantA}, {"b", wantB}} {
		rp, err := newReplayer(cl.Space(), bytes.NewReader(buf.Bytes()), tc.stream, ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := rp.RunApp(app, c, 100); got.Sec != tc.want.Sec {
			t.Fatalf("stream %s replayed %.3f, want %.3f", tc.stream, got.Sec, tc.want.Sec)
		}
	}
	if _, err := newReplayer(cl.Space(), bytes.NewReader(buf.Bytes()), "missing", ReplayOptions{}); err == nil {
		t.Fatal("empty stream must be an error")
	}
}

// Gzip traces must roundtrip through the file-based sink and replayer.
func TestTraceGzipFile(t *testing.T) {
	cl := sparksim.ARM()
	path := filepath.Join(t.TempDir(), "sess.trace.gz")
	sink, err := CreateTraceSink(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(NewSim(sparksim.New(cl, 3)), sink, "s")
	app := batchApp()
	c := cl.Space().Default()
	want := rec.RunApp(app, c, 100)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
	entries, err := TraceEntries(path)
	if err != nil || len(entries) != 1 {
		t.Fatalf("TraceEntries: %d, %v", len(entries), err)
	}
	rp, err := NewReplayerFromEntries(cl.Space(), entries, "s", ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.RunApp(app, c, 100); got.Sec != want.Sec {
		t.Fatalf("gzip replay returned %.3f, want %.3f", got.Sec, want.Sec)
	}
}

// The Meter must charge executions (including batches on native backends)
// and skip noiseless evaluations.
func TestMeterAccounting(t *testing.T) {
	cl := sparksim.ARM()
	var tally Tally
	m := Observe(NewSim(sparksim.New(cl, 5)), &tally)
	app := batchApp()
	cs := randomConfigs(cl.Space(), 4, 8)
	var want float64
	res := m.RunApp(app, cs[0], 100)
	want += res.Sec
	batch, _ := RunBatch(m, app, cs, func(int) float64 { return 100 }, 2, nil)
	for _, r := range batch {
		want += r.Sec
	}
	m.NoiselessAppTime(app, cs[0], 100)
	runs, sec := tally.Snapshot()
	if runs != 5 {
		t.Fatalf("runs=%d, want 5", runs)
	}
	if sec != want {
		t.Fatalf("clusterSec=%.3f, want %.3f", sec, want)
	}
}

// Factory specs must parse to the right kinds and reject junk.
func TestParseSpec(t *testing.T) {
	good := map[string]string{
		"":                               "sim",
		"sim":                            "sim",
		"sparksim":                       "sim",
		"record=/tmp/x.trace":            "record",
		"replay=/tmp/x.trace":            "replay",
		"replay=x,miss=nearest":          "replay",
		"replay=x,miss=nearest,tol=0.05": "replay",
		"sparkrest=http://h:6066":        "sparkrest",
	}
	for spec, kind := range good {
		f, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if f.kind != kind {
			t.Fatalf("ParseSpec(%q).kind=%s, want %s", spec, f.kind, kind)
		}
	}
	for _, spec := range []string{"bogus", "record=", "replay=", "sparkrest=", "replay=x,tol=-1", "replay=x,frob=1"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", spec)
		}
	}
}

// A record-mode factory must share one sink across streams and flush on
// Close; the file must then replay per stream.
func TestFactoryRecordReplay(t *testing.T) {
	cl := sparksim.ARM()
	path := filepath.Join(t.TempDir(), "f.trace")
	f, err := ParseSpec("record=" + path)
	if err != nil {
		t.Fatal(err)
	}
	app := batchApp()
	c := cl.Space().Default()
	r1, err := f.New(cl, 1, "one")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.New(cl, 2, "two")
	if err != nil {
		t.Fatal(err)
	}
	w1 := r1.RunApp(app, c, 100)
	w2 := r2.RunApp(app, c, 200)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := ParseSpec("replay=" + path)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := rf.New(cl, 1, "one")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rf.New(cl, 2, "two")
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.RunApp(app, c, 100); got.Sec != w1.Sec {
		t.Fatalf("stream one: %.3f != %.3f", got.Sec, w1.Sec)
	}
	if got := p2.RunApp(app, c, 200); got.Sec != w2.Sec {
		t.Fatalf("stream two: %.3f != %.3f", got.Sec, w2.Sec)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
}
