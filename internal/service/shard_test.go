package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// seedShard is the shard of testdata/history-seed: one real TPC-H session.
func seedShard(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "history-seed", "arm_TPC-H_b7_qid.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ownShard encodes entries the way FileStore writes them.
func ownShard(t testing.TB, entries ...Entry) []byte {
	t.Helper()
	data, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkShardDecode is the decoder's whole contract against the standard
// library, for one input in one mode: it declines, or returns what
// json.Unmarshal returns — so it accepts nothing Unmarshal rejects. It reports
// whether the decoder took the input.
func checkShardDecode(t *testing.T, data []byte, skip bool) bool {
	t.Helper()
	got, marks, ok := decodeShard(data, skip)
	if !ok {
		if got != nil || marks != nil {
			t.Fatalf("declined, yet returned %d entries and %d marks", len(got), len(marks))
		}
		return false
	}
	var want []Entry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoder (skip=%v) accepted what json.Unmarshal rejects (%v):\n%s", skip, err, data)
	}
	if !skip {
		if marks != nil {
			t.Fatalf("a full decode returned %d marks", len(marks))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entries differ from json.Unmarshal's:\n got  %+v\n want %+v\n%s", got, want, data)
		}
		return true
	}
	if len(got) != len(want) || len(marks) != len(want) {
		t.Fatalf("skip: %d entries and %d marks, json.Unmarshal has %d", len(got), len(marks), len(want))
	}
	for i, w := range want {
		if marks[i].obs != len(w.Obs) {
			t.Fatalf("skip: entry %d counts %d observations, json.Unmarshal has %d", i, marks[i].obs, len(w.Obs))
		}
		// What a skipping scan keeps of an entry is everything but the four
		// bulky fields; entryID, TargetGB and sortedness all follow.
		w.BestParams, w.Sensitive, w.Important, w.Obs = nil, nil, nil, nil
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("skip: entry %d is %+v, json.Unmarshal has %+v", i, got[i], w)
		}
		// The marked bytes are the entry: on their own they decode to it.
		var one Entry
		if err := json.Unmarshal(data[marks[i].off:marks[i].end], &one); err != nil || !reflect.DeepEqual(one, want[i]) {
			t.Fatalf("skip: entry %d is marked at [%d,%d), which does not hold it (%v)", i, marks[i].off, marks[i].end, err)
		}
	}
	if sortedByCreated(got) != sortedByCreated(want) {
		t.Fatal("skip: sortedness differs from json.Unmarshal's entries")
	}
	return true
}

// foreignShards are inputs outside the store's own layout, each one edit away
// from a shard it wrote: every one must be declined (and so be read by
// encoding/json, to the same entries or the same error as ever).
func foreignShards(t testing.TB) map[string][]byte {
	own := string(ownShard(t, testEntry("job-000001", 1000)))
	edit := func(old, new string) []byte {
		if !strings.Contains(own, old) {
			t.Fatalf("the shard under test has no %q to edit", old)
		}
		return []byte(strings.Replace(own, old, new, 1))
	}
	return map[string][]byte{
		"overflowing float":       edit(`"target_gb": 100`, `"target_gb": 1e999`),
		"overflowing observation": edit(`"sec": 456.7`, `"sec": 1e999`),
		"leading zero":            edit(`"target_gb": 100`, `"target_gb": 01`),
		"bare minus":              edit(`"target_gb": 100`, `"target_gb": -`),
		"non-integer int":         edit(`"created_unix": 1000`, `"created_unix": 1000.0`),
		"exponent int":            edit(`"size_bucket": 7`, `"size_bucket": 7e0`),
		"400-digit int":           edit(`"created_unix": 1000`, `"created_unix": 1`+strings.Repeat("0", 400)),
		"400-digit observation":   edit(`"sec": 456.7`, `"sec": 1`+strings.Repeat("0", 400)),
		"escaped string":          edit(`"job-000001"`, `"job-\u003000001"`),
		"escaped key":             edit(`"q3": 100.5`, `"q\u0033": 100.5`),
		"non-ASCII string":        edit(`"job-000001"`, `"job-é"`),
		"control byte in string":  edit(`"job-000001"`, "\"job\x01\""),
		"upper-case field":        edit(`"job_id"`, `"Job_ID"`),
		"unknown field":           edit(`"job_id": "job-000001"`, `"job_id": "job-000001",`+"\n  "+`"extra": 1`),
		"duplicate field":         edit(`"job_id": "job-000001"`, `"job_id": "x",`+"\n  "+`"job_id": "job-000001"`),
		"duplicate map key":       edit(`"q3": 100.5`, `"q3": 1,`+"\n     "+`"q3": 100.5`),
		"descending map keys":     edit(`"q3": 100.5,`+"\n     "+`"q7": 356.2`, `"q7": 356.2,`+"\n     "+`"q3": 100.5`),
		"null map":                edit(`"best_params": {`+"\n   "+`"spark.executor.cores": 4`+"\n  }", `"best_params": null`),
		"null observations":       edit(`"obs": [`, `"obs": null, "x": [`),
		"null string":             edit(`"job_id": "job-000001"`, `"job_id": null`),
		"empty optional list":     edit(`"sensitive": [`+"\n   "+`"q3",`+"\n   "+`"q7"`+"\n  ]", `"sensitive": []`),
		"empty optional map":      edit(`"query_secs": {`+"\n     "+`"q3": 100.5,`+"\n     "+`"q7": 356.2`+"\n    }", `"query_secs": {}`),
		"reordered fields":        edit(`"job_id": "job-000001",`+"\n  "+`"created_unix": 1000`, `"created_unix": 1000,`+"\n  "+`"job_id": "job-000001"`),
		"wider indent":            bytes.ReplaceAll([]byte(own), []byte("\n "), []byte("\n  ")),
		"compact":                 mustCompact(t, own),
		"trailing newline":        []byte(own + "\n"),
		"trailing bytes":          []byte(own + "]"),
		"truncated tail":          []byte(own[:len(own)-40]),
		"no closing bracket":      []byte(own[:len(own)-1]),
		"empty list":              []byte("[]"),
		"null":                    []byte("null"),
		"empty":                   nil,
		"a bare string":           []byte(`"A"`),
		"a bare field name":       []byte(`"Job_ID"`),
	}
}

func mustCompact(t testing.TB, s string) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, []byte(s)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
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
	var seed []Entry
	if err := json.Unmarshal(seedShard(t), &seed); err != nil || len(seed) == 0 || len(seed[0].Obs) < 2 {
		t.Fatalf("testdata/history-seed's shard: %d entries, %v", len(seed), err)
	}
	seed[0].Obs = seed[0].Obs[:2]
	return map[string][]byte{
		"seed":               ownShard(t, seed[:1]...),
		"two entries":        ownShard(t, testEntry("a", 1), testEntry("b", 2)),
		"unsorted entries":   ownShard(t, testEntry("b", 2), testEntry("a", 1)),
		"no optional fields": ownShard(t, bare),
		"odd numbers":        ownShard(t, odd, bare),
		"at the cap":         ownShard(t, full...),
	}
}

// TestShardDecoderTakesOwnLayoutOnly: everything the store writes is decoded
// by the decoder itself, to json.Unmarshal's entries; everything else is left
// to json.Unmarshal.
func TestShardDecoderTakesOwnLayoutOnly(t *testing.T) {
	own := ownShards(t)
	own["testdata/history-seed"] = seedShard(t)
	for name, data := range own {
		for _, skip := range []bool{false, true} {
			if !checkShardDecode(t, data, skip) {
				t.Errorf("%s (skip=%v): a shard in the store's own layout was declined", name, skip)
			}
		}
	}
	for name, data := range foreignShards(t) {
		for _, skip := range []bool{false, true} {
			if checkShardDecode(t, data, skip) {
				t.Errorf("%s (skip=%v): accepted", name, skip)
			}
		}
	}
}

// TestShardDecoderInternsKeys pins the allocation saving the decoder is for:
// the seed shard's 60-odd observations share one set of query names, so a full
// decode makes a fraction of encoding/json's allocations, and a skipping scan
// a few per entry.
func TestShardDecoderInternsKeys(t *testing.T) {
	data := seedShard(t)
	var entries []Entry
	std := testing.AllocsPerRun(5, func() {
		entries = nil
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(5, func() { decodeShard(data, false) })
	skip := testing.AllocsPerRun(5, func() { decodeShard(data, true) })
	t.Logf("allocations for %d observations: encoding/json %v, decoder %v, skipping %v", len(entries[0].Obs), std, full, skip)
	if full > std/3 {
		t.Errorf("a full decode made %v allocations, want at most a third of encoding/json's %v", full, std)
	}
	if skip > 16 {
		t.Errorf("a skipping scan of one entry made %v allocations, want at most 16", skip)
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
		var want []Entry
		wantErr := json.Unmarshal(data, &want)
		if wantErr != nil {
			want = nil // a type error leaves what was decoded around it
		}
		got, err := fs.Get(key)
		if (err == nil) != (wantErr == nil) || err != nil && !strings.HasSuffix(err.Error(), wantErr.Error()) {
			t.Errorf("%s: Get fails with %v, encoding/json with %v", name, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Get returns %+v, encoding/json %+v", name, got, want)
		}
		heads, marks, err := fs.heads(key)
		if (err == nil) != (wantErr == nil) || len(heads) != len(want) || len(marks) != len(want) {
			t.Errorf("%s: heads returns %d entries, %d marks and %v; encoding/json %d entries and %v", name, len(heads), len(marks), err, len(want), wantErr)
		}
	}
}

// FuzzShardDecode holds the decoder to its contract on arbitrary bytes, in
// both modes: decline, or agree with json.Unmarshal.
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
// for byte, and leaves the store knowing every shard, so that the first Put
// after a restart appends.
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
	keys, err := fs.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		st, want := fs.shards[k], ref.shards[k]
		if st.mtime, want.mtime = 0, 0; st != want || st.entries == 0 {
			t.Fatalf("after start-up the store knows %+v of %s, a reading one %+v", st, k, want)
		}
	}

	// An append copies the shard's bytes, a rewrite re-encodes them: a number
	// written as 100.0 stays that way only through the former.
	key := testEntry("", 0).Fingerprint.Key()
	p := filepath.Join(dir, key+".json")
	odd := bytes.Replace(ownShard(t, testEntry("kept", 10)), []byte(`"target_gb": 100`), []byte(`"target_gb": 100.0`), 1)
	if err := os.WriteFile(p, odd, 0o644); err != nil {
		t.Fatal(err)
	}
	NewRecommender(fs, t.Logf)
	if err := fs.Put(testEntry("next", 11)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(p)
	entries, err := fs.Get(key)
	if err != nil || len(entries) != 2 || !bytes.Contains(data, []byte(`"target_gb": 100.0`)) {
		t.Fatalf("the first Put after start-up left %d entries (%v) and re-encoded the shard; want it appended", len(entries), err)
	}
}

// TestFileStoreSplicesAtTheCap pins the cost of a Put to a full shard: what
// encoding the one entry allocates and a scan's few, not what decoding
// thirty-two entries and encoding them again would. (That the bytes are
// rewriteShard's is TestFileStorePutMatchesOracle's to say.)
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
		if _, err := json.MarshalIndent(e, " ", " "); err != nil {
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

// FuzzShardPut is the property behind every way Put extends a shard without
// decoding it — the tail check that gates appendShard, the scan that gates
// spliceShard: whatever bytes a shard holds, if the store can read them, then
// after a Put it can still read them, and finds the entries it found before,
// less what the cap drops, then the new one.
func FuzzShardPut(f *testing.F) {
	for _, data := range ownShards(f) {
		f.Add(data, true)
		f.Add(data, false)
	}
	for _, data := range foreignShards(f) {
		f.Add(data, true)
	}
	// Bytes that end like a shard and are none.
	f.Add([]byte(`"`+shardTail), true)
	f.Add([]byte(`[{"job_id":"x`+shardTail+`"}`+shardTail), true)
	f.Add([]byte("[[\n }\n]"), true)
	e := testEntry("fuzz", 1<<62)
	key := e.Fingerprint.Key()
	f.Fuzz(func(t *testing.T, data []byte, readFirst bool) {
		dir := t.TempDir()
		p := filepath.Join(dir, key+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		before, err := oracleLoad(p)
		if readFirst { // so that Put finds the shard's state and tries to append
			if _, gerr := fs.Get(key); (gerr == nil) != (err == nil) {
				t.Fatalf("Get fails with %v, encoding/json with %v", gerr, err)
			}
		}
		if perr := fs.Put(e); (perr == nil) != (err == nil) {
			t.Fatalf("Put over a shard encoding/json reads with %v: %v", err, perr)
		}
		after, aerr := oracleLoad(p)
		if err != nil {
			if now, _ := os.ReadFile(p); !bytes.Equal(now, data) {
				t.Fatal("a refused Put changed the shard")
			}
			return
		}
		// Compared as the store would write them: a Put that re-encodes drops
		// an optional field the file held empty, one that copies bytes keeps it.
		want := capEntries(append(before, e))
		if aerr != nil || !bytes.Equal(ownShard(t, after...), ownShard(t, want...)) {
			t.Fatalf("after the Put the shard reads as %d entries (%v), want the %d before and the new one:\n%s", len(after), aerr, len(before), data)
		}
	})
}
