package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"locat/internal/obs"
)

// seedShard is the shard of testdata/history-seed: two real TPC-H sessions.
func seedShard(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "history-seed", "arm_TPC-H_b7_qid.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shardLines encodes entries the way FileStore writes them: one json.Marshal
// line each.
func shardLines(t testing.TB, entries ...Entry) []byte {
	t.Helper()
	var out []byte
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// referenceShard reads a shard with encoding/json alone, by the rules of the
// layout: an array whole, anything else one object per line, a last line
// without its newline dropped when it holds none. It is the store's oracle.
func referenceShard(data []byte) ([]Entry, error) {
	var entries []Entry
	if len(data) > 0 && data[0] != '{' {
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, err
		}
		return entries, nil
	}
	for len(data) > 0 {
		line, rest, whole := bytes.Cut(data, []byte("\n"))
		var e Entry
		err := errNotEntry
		if len(line) > 0 && line[0] == '{' {
			err = json.Unmarshal(line, &e)
		}
		if err != nil && !whole {
			break
		}
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		data = rest
	}
	return entries, nil
}

// headsOf is what a skipping read keeps of entries: all but Sensitive,
// Important and Obs, BestParams included.
func headsOf(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		e.Sensitive, e.Important, e.Obs = nil, nil, nil
		out[i] = e
	}
	return out
}

// checkShardDecode is the decoder's whole contract against the standard
// library, for one input in one mode: decodeShard returns what referenceShard
// returns — the same error, the same entries, or with skip the same heads and
// observation counts.
func checkShardDecode(t *testing.T, data []byte, skip bool) {
	t.Helper()
	got, obs, err := decodeShard(data, skip)
	want, wantErr := referenceShard(data)
	if (err == nil) != (wantErr == nil) || err != nil && !strings.HasSuffix(err.Error(), wantErr.Error()) {
		t.Fatalf("decodeShard (skip=%v) fails with %v, encoding/json with %v:\n%q", skip, err, wantErr, data)
	}
	switch {
	case err != nil:
		if got != nil || obs != nil {
			t.Fatalf("failed, yet returned %d entries and %d counts", len(got), len(obs))
		}
	case !skip:
		if obs != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entries differ from encoding/json's:\n got  %+v\n want %+v\n%q", got, want, data)
		}
	case !slices.Equal(obs, obsCounts(want)) || !reflect.DeepEqual(headsOf(got), headsOf(want)):
		t.Fatalf("skip: %+v with %v observations, encoding/json %+v with %v", got, obs, want, obsCounts(want))
	}
}

// ownLayout reports whether data is whole lines that the decoder itself
// takes, in both modes.
func ownLayout(data []byte) bool {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return false
	}
	for _, skip := range []bool{false, true} {
		d := shardDecoder{skip: skip}
		for _, line := range bytes.Split(data[:len(data)-1], []byte("\n")) {
			if _, _, ok := d.own(line); !ok {
				return false
			}
		}
	}
	return true
}

// foreignShards are inputs outside the store's own layout, each one edit away
// from a shard it wrote: the decoder declines every one, and the store reads
// it by the layout's rules through encoding/json.
func foreignShards(t testing.TB) map[string][]byte {
	own := string(shardLines(t, testEntry("job-000001", 1000)))
	line := strings.TrimSuffix(own, "\n")
	edit := func(old, new string) []byte {
		if !strings.Contains(own, old) {
			t.Fatalf("the shard under test has no %q to edit", old)
		}
		return []byte(strings.Replace(own, old, new, 1))
	}
	indented, err := json.MarshalIndent([]Entry{testEntry("job-000001", 1000)}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"overflowing float":       edit(`"target_gb":100`, `"target_gb":1e999`),
		"overflowing observation": edit(`"sec":456.7`, `"sec":1e999`),
		"leading zero":            edit(`"target_gb":100`, `"target_gb":01`),
		"bare minus":              edit(`"target_gb":100`, `"target_gb":-`),
		"non-integer int":         edit(`"created_unix":1000`, `"created_unix":1000.0`),
		"exponent int":            edit(`"size_bucket":7`, `"size_bucket":7e0`),
		"400-digit int":           edit(`"created_unix":1000`, `"created_unix":1`+strings.Repeat("0", 400)),
		"400-digit observation":   edit(`"sec":456.7`, `"sec":1`+strings.Repeat("0", 400)),
		"escaped string":          edit(`"job-000001"`, `"job-\u003000001"`),
		"escaped key":             edit(`"q3":100.5`, `"q\u0033":100.5`),
		"non-ASCII string":        edit(`"job-000001"`, `"job-é"`),
		"control byte in string":  edit(`"job-000001"`, "\"job\x01\""),
		"upper-case field":        edit(`"job_id"`, `"Job_ID"`),
		"unknown field":           edit(`"job_id":"job-000001"`, `"job_id":"job-000001","extra":1`),
		"duplicate field":         edit(`"job_id":"job-000001"`, `"job_id":"x","job_id":"job-000001"`),
		"duplicate map key":       edit(`"q3":100.5`, `"q3":1,"q3":100.5`),
		"descending map keys":     edit(`"q3":100.5,"q7":356.2`, `"q7":356.2,"q3":100.5`),
		"null map":                edit(`"best_params":{"spark.executor.cores":4}`, `"best_params":null`),
		"null observations":       edit(`"obs":[`, `"obs":null,"x":[`),
		"null string":             edit(`"job_id":"job-000001"`, `"job_id":null`),
		"empty optional list":     edit(`"sensitive":["q3","q7"]`, `"sensitive":[]`),
		"empty optional map":      edit(`"query_secs":{"q3":100.5,"q7":356.2}`, `"query_secs":{}`),
		"reordered fields":        edit(`"job_id":"job-000001","created_unix":1000`, `"created_unix":1000,"job_id":"job-000001"`),
		"white space":             edit(`"job_id":"job-000001"`, `"job_id": "job-000001"`),
		"carriage return":         edit("}\n", "}\r\n"),
		"indented array":          indented,
		"no last newline":         []byte(line),
		"torn last line":          []byte(own + line[:40]),
		"torn only line":          []byte(line[:len(line)-40]),
		"blank line":              []byte(own + "\n"),
		"trailing bytes":          []byte(own + "]"),
		"not an object":           []byte(own + "null\n"),
		"one line of each":        append([]byte(own), edit(`"job_id"`, `"Job_ID"`)...),
		"empty list":              []byte("[]"),
		"null":                    []byte("null"),
		"empty":                   nil,
		"a bare string":           []byte(`"A"`),
		"a bare field name":       []byte(`"Job_ID"`),
	}
}

// sparseEntry has none of the optional fields.
func sparseEntry(jobID string, created int64) Entry {
	return Entry{Fingerprint: testEntry("", 0).Fingerprint, JobID: jobID, CreatedUnix: created}
}

// ownShards are shards in the store's own layout, which the decoder must take
// in both modes.
func ownShards(t testing.TB) map[string][]byte {
	bare := sparseEntry("bare", 5)
	bare.BestParams, bare.Obs = map[string]float64{}, []Observation{}
	odd := testEntry("odd numbers", 7)
	odd.TargetGB, odd.TunedSec, odd.OverheadSec = -0.5, 1e-9, 1e21
	odd.Obs = append(odd.Obs, Observation{Params: []float64{}, Sec: 1e300}, odd.Obs[0])
	var full []Entry
	for i := 0; i < maxEntriesPerKey; i++ {
		full = append(full, sparseEntry("full", int64(i)))
		full[i].BestParams, full[i].Obs = map[string]float64{}, []Observation{}
	}
	// The committed shard cut to a size the fuzzer can work on: a mutation it
	// finds interesting is minimised byte by byte, minutes for 20 KB.
	seed, err := referenceShard(seedShard(t))
	if err != nil || len(seed) == 0 || len(seed[0].Obs) < 2 {
		t.Fatalf("testdata/history-seed's shard: %d entries, %v", len(seed), err)
	}
	seed[0].Obs = seed[0].Obs[:2]
	return map[string][]byte{
		"seed":               shardLines(t, seed[:1]...),
		"two entries":        shardLines(t, testEntry("a", 1), testEntry("b", 2)),
		"unsorted entries":   shardLines(t, testEntry("b", 2), testEntry("a", 1)),
		"no optional fields": shardLines(t, bare),
		"odd numbers":        shardLines(t, odd, bare),
		"at the cap":         shardLines(t, full...),
	}
}

// TestShardDecoderTakesOwnLayoutOnly: every line the store writes is decoded
// by the decoder itself, to json.Unmarshal's entries; anything else is left to
// json.Unmarshal, line by line or, for the array layout, whole.
func TestShardDecoderTakesOwnLayoutOnly(t *testing.T) {
	own := ownShards(t)
	own["testdata/history-seed"] = seedShard(t)
	for name, data := range own {
		if !ownLayout(data) {
			t.Errorf("%s: a shard in the store's own layout was declined", name)
		}
		checkShardDecode(t, data, false)
		checkShardDecode(t, data, true)
	}
	for name, data := range foreignShards(t) {
		if ownLayout(data) {
			t.Errorf("%s: accepted", name)
		}
		checkShardDecode(t, data, false)
		checkShardDecode(t, data, true)
	}
}

// TestShardDecoderInternsKeys pins the allocation saving the decoder is for:
// the seed shard's observations share one set of query names and its entries
// one fingerprint, so a full decode makes a fraction of encoding/json's
// allocations, and a skipping scan a few per entry beside its best_params —
// 68 under go1.24: 10 for the scan, the 38 parameter names interned once with
// the list that holds them, and one map per entry.
func TestShardDecoderInternsKeys(t *testing.T) {
	data := seedShard(t)
	std := testing.AllocsPerRun(5, func() {
		if _, err := referenceShard(data); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(5, func() { decodeShard(data, false) })
	skip := testing.AllocsPerRun(5, func() { decodeShard(data, true) })
	t.Logf("allocations: encoding/json %v, decoder %v, skipping %v", std, full, skip)
	if full > std/3 {
		t.Errorf("a full decode made %v allocations, want at most a third of encoding/json's %v", full, std)
	}
	if skip > 72 {
		t.Errorf("a skipping scan of the shard made %v allocations, want at most 72", skip)
	}
}

// TestFileStoreReadsForeignShardThroughFallback: a shard the decoder declines
// still loads, to exactly what encoding/json makes of it, and a broken one
// still fails with encoding/json's error.
func TestFileStoreReadsForeignShardThroughFallback(t *testing.T) {
	key := testEntry("", 0).Fingerprint.Key()
	for name, data := range foreignShards(t) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceShard(data)
		got, err := fs.Get(key)
		if (err == nil) != (wantErr == nil) || err != nil && !strings.HasSuffix(err.Error(), wantErr.Error()) {
			t.Errorf("%s: Get fails with %v, encoding/json with %v", name, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Get returns %+v, encoding/json %+v", name, got, want)
		}
		heads, obs, err := fs.heads(key)
		if (err == nil) != (wantErr == nil) || len(heads) != len(want) || len(obs) != len(want) {
			t.Errorf("%s: heads returns %d entries, %d counts and %v; encoding/json %d entries and %v", name, len(heads), len(obs), err, len(want), wantErr)
		}
	}
}

// FuzzShardDecode holds the decoder to its contract on arbitrary bytes, in
// both modes: the entries or the error encoding/json gives.
func FuzzShardDecode(f *testing.F) {
	for _, data := range ownShards(f) {
		f.Add(data)
	}
	for _, data := range foreignShards(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkShardDecode(t, data, false)
		checkShardDecode(t, data, true)
	})
}

// getOnly is a FileStore that can only be read whole: Put, Get, Keys and the
// index path, without heads — the store as reconcileLocked saw it before
// shards could be scanned.
type getOnly struct {
	Store
	index string
}

func (g getOnly) IndexPath() string { return g.index }

// copySeedStore copies testdata/history-seed's shard into a fresh directory
// and puts a few more keys beside it.
func copySeedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "arm_TPC-H_b7_qid.json"), seedShard(t), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := fs.Put(bucketEntry("extra", int64(2000+i), 3+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestStartupScansShardHeads: rebuilding the index from a scan that skips the
// observations writes the index file a whole read of every shard writes, byte
// for byte, and the first Put after a restart appends.
func TestStartupScansShardHeads(t *testing.T) {
	dir, refDir := copySeedStore(t), copySeedStore(t)
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewFileStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRecommender(fs, t.Logf)
	refRC := NewRecommender(getOnly{ref, ref.IndexPath()}, t.Logf)
	got, _ := os.ReadFile(fs.IndexPath())
	want, _ := os.ReadFile(ref.IndexPath())
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("index file after a scanning start-up is %d bytes, after a reading one %d; they differ", len(got), len(want))
	}
	if rc.Len() != refRC.Len() || rc.Len() != 2+9 {
		t.Fatalf("index holds %d items, a reading start-up %d, want 11", rc.Len(), refRC.Len())
	}

	// An append keeps the shard's bytes, a rewrite re-encodes them: a number
	// written as 100.0 stays that way only through the former.
	key := testEntry("", 0).Fingerprint.Key()
	p := filepath.Join(dir, key+".json")
	odd := bytes.Replace(shardLines(t, testEntry("kept", 10)), []byte(`"target_gb":100`), []byte(`"target_gb":100.0`), 1)
	if err := os.WriteFile(p, odd, 0o644); err != nil {
		t.Fatal(err)
	}
	NewRecommender(fs, t.Logf)
	if err := fs.Put(testEntry("next", 11)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(p)
	entries, err := fs.Get(key)
	if err != nil || len(entries) != 2 || !bytes.HasPrefix(data, odd) {
		t.Fatalf("the first Put after start-up left %d entries (%v) and re-encoded the shard; want it appended", len(entries), err)
	}
}

// TestFileStoreSplicesAtTheCap pins the cost of a Put to a full shard: what
// encoding the one entry allocates and a scan's few, not what decoding
// thirty-two entries and encoding them again would. (That the entries are
// the oracle's is TestFileStorePutMatchesOracle's to say.)
func TestFileStoreSplicesAtTheCap(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("job", 1000)
	for i := 0; i < 16; i++ {
		e.Obs = append(e.Obs, e.Obs[0])
	}
	for i := 0; i < maxEntriesPerKey; i++ {
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	encode := testing.AllocsPerRun(5, func() {
		if _, err := json.Marshal(e); err != nil {
			t.Fatal(err)
		}
	})
	put := testing.AllocsPerRun(5, func() {
		e.CreatedUnix++
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
	})
	var entries []Entry
	decode := testing.AllocsPerRun(5, func() {
		if entries, err = fs.Get(e.Fingerprint.Key()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations: encode one entry %v, put at the cap %v, decode the shard %v", encode, put, decode)
	if n := len(entries); n != maxEntriesPerKey || entries[n-1].CreatedUnix != e.CreatedUnix {
		t.Fatalf("the shard holds %d entries, the newest from %d; want %d and %d", n, entries[n-1].CreatedUnix, maxEntriesPerKey, e.CreatedUnix)
	}
	if limit := encode + 6*maxEntriesPerKey + 60; put > limit {
		t.Fatalf("a Put at the cap made %v allocations, want at most %v (encoding the entry makes %v)", put, limit, encode)
	}
	if put >= decode/2 {
		t.Fatalf("a Put at the cap made %v allocations, decoding the shard alone makes %v", put, decode)
	}
}

// ownLines reports whether a shard is whole lines, as every Put leaves it.
func ownLines(data []byte) bool {
	return len(data) > 0 && data[0] == '{' && data[len(data)-1] == '\n'
}

// FuzzShardPut is the property behind every way Put extends a shard — an
// appended line, the cap's splice, a rewrite: whatever bytes a shard holds, if
// encoding/json reads them, then after a Put the store reads the entries read
// before, less what the cap drops, and the new one, from a file of whole
// lines; if it does not, the Put fails and the file stays as it was.
func FuzzShardPut(f *testing.F) {
	for _, data := range ownShards(f) {
		f.Add(data, true)
		f.Add(data, false)
	}
	for _, data := range foreignShards(f) {
		f.Add(data, true)
	}
	// Bytes that start like lines and hold none.
	f.Add([]byte("{\n"), true)
	f.Add([]byte("{}\n{"), true)
	f.Add([]byte("\n"), false)
	f.Fuzz(func(t *testing.T, data []byte, newest bool) {
		e := testEntry("fuzz", 1<<62)
		if !newest {
			e.CreatedUnix = -1 << 62
		}
		dir := t.TempDir()
		p := filepath.Join(dir, e.Fingerprint.Key()+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		before, err := referenceShard(data)
		if perr := fs.Put(e); (perr == nil) != (err == nil) {
			t.Fatalf("Put over a shard encoding/json reads with %v: %v", err, perr)
		}
		now, _ := os.ReadFile(p)
		if err != nil {
			if !bytes.Equal(now, data) {
				t.Fatal("a refused Put changed the shard")
			}
			return
		}
		// Compared as the store writes them: a Put that rewrites drops an
		// optional field a line held empty, one that appends keeps it.
		after, aerr := referenceShard(now)
		want := capEntries(append(before, e))
		if aerr != nil || !ownLines(now) || !bytes.Equal(shardLines(t, after...), shardLines(t, want...)) {
			t.Fatalf("after the Put the shard reads as %d entries (%v), want the %d before and the new one:\n%q", len(after), aerr, len(before), data)
		}
	})
}

// shardOracle drives a FileStore through a sequence of calls and records the
// first time the store and the oracle disagree. The oracle of a Put is the
// shard read by encoding/json (referenceShard) just before it, plus the
// entry, sorted and capped; a shard encoding/json cannot read must make the
// Put fail and stay as it was.
type shardOracle struct {
	t    *testing.T
	dir  string
	fs   *FileStore
	diff string
}

func newShardOracle(t *testing.T) *shardOracle {
	o := &shardOracle{t: t, dir: t.TempDir()}
	o.reopen()
	return o
}

func (o *shardOracle) reopen() {
	fs, err := NewFileStore(o.dir)
	if err != nil {
		o.t.Fatal(err)
	}
	o.fs = fs
}

func (o *shardOracle) differ(format string, args ...any) {
	if o.diff == "" {
		o.diff = fmt.Sprintf(format, args...)
	}
}

func (o *shardOracle) read(key string) []byte {
	data, err := os.ReadFile(filepath.Join(o.dir, key+".json"))
	if err != nil && !os.IsNotExist(err) {
		o.t.Fatal(err)
	}
	return data
}

func (o *shardOracle) put(e Entry) {
	key := e.Fingerprint.Key()
	data := o.read(key)
	before, refErr := referenceShard(data)
	err := o.fs.Put(e)
	after := fmt.Sprintf("put %s@%d", e.JobID, e.CreatedUnix)
	if (err == nil) != (refErr == nil) {
		o.differ("%s: error %v, the oracle's %v", after, err, refErr)
		return
	}
	now := o.read(key)
	if err != nil {
		if !bytes.Equal(now, data) {
			o.differ("%s: a refused Put changed the shard", after)
		}
		return
	}
	want := capEntries(append(before, e))
	got, err := o.fs.Get(key)
	if err != nil || !ownLines(now) || !bytes.Equal(shardLines(o.t, got...), shardLines(o.t, want...)) {
		o.differ("%s: the store reads %d entries (%v), the oracle %d", after, len(got), err, len(want))
	}
}

func (o *shardOracle) get(key string) {
	want, refErr := referenceShard(o.read(key))
	got, err := o.fs.Get(key)
	if (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, want) {
		o.differ("get %s: %d entries (%v), the oracle's %d (%v)", key, len(got), err, len(want), refErr)
	}
}

// behindTheBack applies change to the shard file of key.
func (o *shardOracle) behindTheBack(key string, change func(p string) error) {
	if err := change(filepath.Join(o.dir, key+".json")); err != nil {
		o.t.Fatal(err)
	}
}

// writeShard returns a change that replaces a shard with data and dates the
// file at mtime.
func writeShard(mtime time.Time, data []byte) func(p string) error {
	return func(p string) error {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return err
		}
		return os.Chtimes(p, mtime, mtime)
	}
}

// TestFileStorePutMatchesOracle: whatever the shard holds and however Put
// writes, the entries read back after every call are the oracle's.
func TestFileStorePutMatchesOracle(t *testing.T) {
	key := testEntry("", 0).Fingerprint.Key()
	then := time.Unix(1_500_000_000, 0)
	job := func(i int) string { return fmt.Sprintf("job-%06d", i) }
	lines := func(entries ...Entry) []byte { return shardLines(t, entries...) }
	edit := func(f func([]byte) []byte) func(p string) error {
		return func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, f(data), 0o644)
		}
	}
	var full []Entry
	for i := 0; i < maxEntriesPerKey; i++ {
		full = append(full, testEntry("x", int64(i)))
	}
	array, err := json.MarshalIndent([]Entry{testEntry(job(0), 1000), testEntry(job(1), 1001)}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		seq  func(o *shardOracle)
	}{
		{"first write, then 40 appends across the cap", func(o *shardOracle) {
			for i := 0; i < maxEntriesPerKey+9; i++ {
				o.put(testEntry(job(i), int64(1000+i)))
			}
		}},
		{"a get between every two puts", func(o *shardOracle) {
			for i := 0; i < maxEntriesPerKey+3; i++ {
				o.get(key)
				o.put(testEntry(job(i), int64(1000+i)))
			}
			o.get(key)
		}},
		{"out-of-order and equal times", func(o *shardOracle) {
			for i, created := range []int64{100, 100, 50, 100, 75, 200, 200, 10, 200, 199} {
				o.put(testEntry(job(i), created))
			}
		}},
		{"entries without optional fields, and strings JSON escapes", func(o *shardOracle) {
			o.put(sparseEntry("a", 1))
			o.put(testEntry(`<b> & "c" \ é 世`, 2))
			o.put(sparseEntry("", 2))
			e := testEntry("d", 3)
			e.Obs = []Observation{{}, {Params: []float64{}, QuerySecs: map[string]float64{}}}
			e.Sensitive, e.Important, e.BestParams = []string{}, nil, map[string]float64{}
			o.put(e)
			o.put(sparseEntry("e", 4))
			o.get(key)
		}},
		{"several keys", func(o *shardOracle) {
			for i := 0; i < 12; i++ {
				o.put(bucketEntry(job(i), int64(1000+i), i%3))
			}
		}},
		{"a reopened store", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.reopen()
			o.put(testEntry(job(2), 1002))
			o.reopen()
			o.get(key)
			o.put(testEntry(job(3), 1003))
		}},
		{"shard replaced by one holding newer entries", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, writeShard(then, lines(testEntry("x", 900), testEntry("y", 5000), testEntry("z", 6000))))
			o.put(testEntry(job(2), 1002))
			o.put(testEntry(job(3), 7000))
		}},
		{"shard replaced by one at the cap", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.behindTheBack(key, writeShard(then, lines(full...)))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, writeShard(then, lines(full...)))
			o.get(key)
			o.put(testEntry(job(2), 10))
		}},
		{"shard torn mid-line, then restored", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, edit(func(b []byte) []byte { return b[:len(b)-100] }))
			o.get(key)
			o.put(testEntry(job(2), 1002))
			o.behindTheBack(key, func(p string) error { return os.Truncate(p, 300) })
			o.get(key)
			o.put(testEntry(job(3), 1003))
			o.behindTheBack(key, writeShard(then, lines(testEntry(job(0), 1000))))
			o.put(testEntry(job(4), 1004))
		}},
		{"last newline dropped, or a blank line added", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.behindTheBack(key, edit(func(b []byte) []byte { return bytes.TrimSuffix(b, []byte("\n")) }))
			o.get(key)
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, edit(func(b []byte) []byte { return append(b, '\n') }))
			o.get(key)
			o.put(testEntry(job(2), 1002)) // both refuse
		}},
		{"shard in the array layout of older stores, or reordered", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.behindTheBack(key, writeShard(then, array))
			o.get(key)
			o.put(testEntry(job(2), 1002))
			o.behindTheBack(key, writeShard(then, lines(testEntry(job(1), 1001), testEntry(job(0), 1000))))
			o.get(key)
			o.put(testEntry(job(3), 1003))
		}},
		{"shard emptied to [], null or nothing", func(o *shardOracle) {
			for i, empty := range []string{"[]", "null", "[\n]", ""} {
				o.put(testEntry(job(2*i), int64(1000+2*i)))
				o.behindTheBack(key, func(p string) error { return os.WriteFile(p, []byte(empty), 0o644) })
				o.get(key)
				o.put(testEntry(job(2*i+1), int64(1001+2*i)))
			}
		}},
		{"shard deleted between puts", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, os.Remove)
			o.put(testEntry(job(2), 1002))
			o.behindTheBack(key, os.Remove)
			o.get(key)
			o.put(testEntry(job(3), 1003))
		}},
	}
	for _, c := range cases {
		o := newShardOracle(t)
		if c.seq(o); o.diff != "" {
			t.Errorf("%s: %s", c.name, o.diff)
		}
	}
}

// TestPersistedShardsMatchOracle: the shards a running service leaves are its
// entries' json.Marshal lines, oldest first, in the decoder's own layout.
func TestPersistedShardsMatchOracle(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, Store: fs, Metrics: obs.NewRegistry()})
	seedHistory(t, svc, []float64{100, 104, 140, 30, 100})
	svc.Close()
	keys, err := fs.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys %v, %v; want two size buckets", keys, err)
	}
	for _, key := range keys {
		entries, err := fs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(filepath.Join(dir, key+".json"))
		if want := shardLines(t, entries...); len(got) == 0 || !bytes.Equal(got, want) || !ownLayout(got) {
			t.Fatalf("%s: %d entries, %d bytes on disk, their lines %d", key, len(entries), len(got), len(want))
		}
	}
}
