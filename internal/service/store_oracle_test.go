package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"locat/internal/obs"
)

// oraclePut is FileStore.Put as it was before the store remembered anything
// about its shards: decode the whole file, append, sort, cap, encode the
// whole file, temp file + rename. The store's Put must leave the same bytes.
func oraclePut(dir string, e Entry) error {
	p := filepath.Join(dir, e.Fingerprint.Key()+".json")
	entries, err := oracleLoad(p)
	if err != nil {
		return err
	}
	entries = capEntries(append(entries, e))
	data, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

func oracleLoad(p string) ([]Entry, error) {
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// shardOracle drives a FileStore and the oracle through the same calls, each
// in a directory of its own, and records the first difference between what
// they leave on disk or return.
type shardOracle struct {
	t           *testing.T
	dir, refDir string
	fs          *FileStore
	// skipStat is the mutation the guard test applies: before every Put the
	// store is made to believe that the file on disk is the one it remembers,
	// which is what a Put without the size and time check would assume.
	skipStat bool
	diff     string
}

func newShardOracle(t *testing.T, skipStat bool) *shardOracle {
	o := &shardOracle{t: t, dir: t.TempDir(), refDir: t.TempDir(), skipStat: skipStat}
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

// files returns name → content of everything in dir.
func (o *shardOracle) files(dir string) map[string][]byte {
	des, err := os.ReadDir(dir)
	if err != nil {
		o.t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			o.t.Fatal(err)
		}
		out[de.Name()] = data
	}
	return out
}

// compare requires both directories to hold the same files with the same
// bytes — which also means no temporary file is left in either.
func (o *shardOracle) compare(after string) {
	got, want := o.files(o.dir), o.files(o.refDir)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			o.differ("%s: the store has no file %s", after, name)
		} else if !bytes.Equal(g, w) {
			o.differ("%s: %s differs from the oracle's (%d vs %d bytes)", after, name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			o.differ("%s: the store left %s, the oracle did not", after, name)
		}
	}
}

func (o *shardOracle) put(e Entry) {
	key := e.Fingerprint.Key()
	if st, ok := o.fs.shards[key]; ok && o.skipStat {
		if fi, err := os.Stat(filepath.Join(o.dir, key+".json")); err == nil {
			st.size, st.mtime = fi.Size(), fi.ModTime().UnixNano()
			o.fs.shards[key] = st
		}
	}
	err, refErr := o.fs.Put(e), oraclePut(o.refDir, e)
	after := fmt.Sprintf("put %s@%d", e.JobID, e.CreatedUnix)
	if (err == nil) != (refErr == nil) {
		o.differ("%s: error %v, the oracle's %v", after, err, refErr)
	}
	o.compare(after)
}

func (o *shardOracle) get(key string) {
	got, err := o.fs.Get(key)
	want, refErr := oracleLoad(filepath.Join(o.refDir, key+".json"))
	if (err == nil) != (refErr == nil) {
		o.differ("get %s: error %v, the oracle's %v", key, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		o.differ("get %s: %d entries differ from the oracle's %d", key, len(got), len(want))
	}
}

// behindTheBack applies change to the shard file of key in both directories.
func (o *shardOracle) behindTheBack(key string, change func(p string) error) {
	for _, dir := range []string{o.dir, o.refDir} {
		if err := change(filepath.Join(dir, key+".json")); err != nil {
			o.t.Fatal(err)
		}
	}
}

// writeShard returns a change that replaces a shard with the entries encoded
// the way the store encodes them, and dates the file at mtime.
func writeShard(mtime time.Time, entries ...Entry) func(p string) error {
	return writeShardIndented(" ", mtime, entries...)
}

func writeShardIndented(indent string, mtime time.Time, entries ...Entry) func(p string) error {
	return func(p string) error {
		data, err := json.MarshalIndent(entries, "", indent)
		if err != nil {
			return err
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return err
		}
		return os.Chtimes(p, mtime, mtime)
	}
}

// sparseEntry has none of the optional fields.
func sparseEntry(jobID string, created int64) Entry {
	return Entry{Fingerprint: testEntry("", 0).Fingerprint, JobID: jobID, CreatedUnix: created}
}

// shardOracleCases calls run on every sequence of calls the store's Put must
// handle exactly as the oracle does, each on a fresh pair of directories,
// until run returns false.
func shardOracleCases(run func(name string, seq func(o *shardOracle)) bool) {
	key := testEntry("", 0).Fingerprint.Key()
	then := time.Unix(1_500_000_000, 0)
	job := func(i int) string { return fmt.Sprintf("job-%06d", i) }
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
			o.put(testEntry(job(3), 1003))
			o.reopen()
			o.get(key)
			o.put(testEntry(job(4), 1004))
		}},
		{"shard replaced by a larger one holding newer entries", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, writeShard(then, testEntry("x", 900), testEntry("y", 5000), testEntry("z", 6000)))
			o.put(testEntry(job(2), 1002))
			o.put(testEntry(job(3), 1003))
		}},
		{"shard replaced by one of the same size, only its time differs", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 2000))
			o.behindTheBack(key, writeShard(then, testEntry(job(0), 1000), testEntry(job(1), 9000)))
			o.put(testEntry(job(2), 3000))
		}},
		{"shard replaced by one at the cap", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			var full []Entry
			for i := 0; i < maxEntriesPerKey; i++ {
				full = append(full, testEntry("x", int64(i)))
			}
			o.behindTheBack(key, writeShard(then, full...))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, writeShard(then, full...))
			o.get(key)
			o.put(testEntry(job(2), 1002))
		}},
		{"shard truncated, then restored", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.put(testEntry(job(1), 1001))
			o.behindTheBack(key, func(p string) error { return os.Truncate(p, 300) })
			o.put(testEntry(job(2), 1002)) // both refuse
			o.get(key)
			o.behindTheBack(key, writeShard(then, testEntry(job(0), 1000)))
			o.put(testEntry(job(3), 1003))
			o.put(testEntry(job(4), 1004))
		}},
		{"trailing newline added", func(o *shardOracle) {
			addNewline := func(p string) error {
				data, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				return os.WriteFile(p, append(data, '\n'), 0o644)
			}
			o.put(testEntry(job(0), 1000))
			o.behindTheBack(key, addNewline)
			o.put(testEntry(job(1), 1001))
			// Read first, and the store knows the file's size and time: only
			// its last bytes say that it is not laid out as the store's own.
			o.behindTheBack(key, addNewline)
			o.get(key)
			o.put(testEntry(job(2), 1002))
		}},
		{"shard re-indented, or reordered, then read", func(o *shardOracle) {
			o.put(testEntry(job(0), 1000))
			o.behindTheBack(key, writeShardIndented("  ", then, testEntry(job(0), 1000), testEntry(job(1), 1001)))
			o.get(key)
			o.put(testEntry(job(2), 1002))
			o.behindTheBack(key, writeShard(then, testEntry(job(1), 1001), testEntry(job(0), 1000)))
			o.get(key)
			o.put(testEntry(job(3), 1003))
		}},
		{"shard emptied to [] or null", func(o *shardOracle) {
			for i, empty := range []string{"[]", "null", "[\n]"} {
				o.put(testEntry(job(2*i), int64(1000+2*i)))
				o.behindTheBack(key, func(p string) error { return os.WriteFile(p, []byte(empty), 0o644) })
				if i > 0 {
					o.get(key)
				}
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
			o.put(testEntry(job(4), 1004))
		}},
	}
	for _, c := range cases {
		if !run(c.name, c.seq) {
			return
		}
	}
}

// TestFileStorePutMatchesOracle: whatever the store remembers and however it
// writes, the bytes on disk and the entries read back are the oracle's.
func TestFileStorePutMatchesOracle(t *testing.T) {
	shardOracleCases(func(name string, seq func(o *shardOracle)) bool {
		o := newShardOracle(t, false)
		if seq(o); o.diff != "" {
			t.Errorf("%s: %s", name, o.diff)
		}
		return true
	})
}

// The suite must notice a Put that trusts what it remembers without looking
// at the file's size and time: some case has to replace a shard in a way only
// that check catches.
func TestFileStoreOracleSuiteSeesSkippedStat(t *testing.T) {
	seen := false
	shardOracleCases(func(_ string, seq func(o *shardOracle)) bool {
		o := newShardOracle(t, true)
		seq(o)
		seen = o.diff != ""
		return !seen
	})
	if !seen {
		t.Fatal("no case distinguishes a Put that skips the stat check: the suite never changes a shard behind the store's back in a way that matters")
	}
}

// TestFileStoreAppendsWithoutDecoding pins the cost of the append path: a Put
// to a shard the store knows allocates what encoding the one entry allocates,
// plus a constant for the files — not what decoding the shard would.
func TestFileStoreAppendsWithoutDecoding(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("job", 1000)
	for i := 0; i < 16; i++ {
		e.Obs = append(e.Obs, e.Obs[0])
	}
	for i := 0; i < 3; i++ {
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	encode := testing.AllocsPerRun(5, func() {
		if _, err := json.MarshalIndent(e, " ", " "); err != nil {
			t.Fatal(err)
		}
	})
	// Five measured runs and a warm-up stay well below the per-key cap.
	put := testing.AllocsPerRun(5, func() {
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(5, func() {
		if _, err := fs.Get(e.Fingerprint.Key()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations: encode one entry %v, put %v, decode the shard %v", encode, put, decode)
	if limit := encode + 40; put > limit {
		t.Fatalf("Put made %v allocations, want at most %v (encoding the entry makes %v)", put, limit, encode)
	}
	if put >= decode {
		t.Fatalf("Put made %v allocations, no fewer than the %v of decoding the shard", put, decode)
	}
}

// shardTimes lists the shard files of dir as key → modification time, the way
// key eviction used to on every write.
func shardTimes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || !ValidKey(key) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[key] = info.ModTime().UnixNano()
	}
	return out
}

// survivors is the eviction oracle: the keys left when shards are dropped
// oldest first, ties on key order, until maxKeys remain.
func survivors(shards map[string]int64, maxKeys int) []string {
	keys := make([]string, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if shards[keys[a]] != shards[keys[b]] {
			return shards[keys[a]] < shards[keys[b]]
		}
		return keys[a] < keys[b]
	})
	if len(keys) > maxKeys {
		keys = keys[len(keys)-maxKeys:]
	}
	sort.Strings(keys)
	return keys
}

// nextTick waits until a file written now is dated later than every file
// written before the call: file times come from a coarse clock.
func nextTick(t *testing.T, dir string) {
	t.Helper()
	probe := filepath.Join(dir, "probe")
	defer os.Remove(probe)
	var first time.Time
	for i := 0; ; i++ {
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(probe)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = fi.ModTime()
		} else if fi.ModTime().After(first) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileStoreEvictionMatchesListing: the keys that survive the cap are the
// ones a listing of the directory would have kept, both when SetMaxKeys lists
// it and when Put evicts from what the store remembers.
func TestFileStoreEvictionMatchesListing(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(bucket int) string { return bucketEntry("", 0, bucket).Fingerprint.Key() }
	for b := 0; b < 8; b++ {
		if err := fs.Put(bucketEntry("seed", 1000, b)); err != nil {
			t.Fatal(err)
		}
	}
	// Dates the store has not seen, two of them tied.
	for b, sec := range []int64{500, 100, 300, 100, 800, 200, 700, 600} {
		mt := time.Unix(sec, 0)
		if err := os.Chtimes(filepath.Join(dir, keyOf(b)+".json"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	want := survivors(shardTimes(t, dir), 5)
	fs.SetMaxKeys(5)
	if got, _ := fs.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after SetMaxKeys(5): keys %v, a listing keeps %v", got, want)
	}

	// New keys and old ones, each write later than the last.
	for i, b := range []int{9, 0, 10, 4, 11, 12, 6, 9, 13, 14, 0, 15} {
		nextTick(t, dir)
		before := shardTimes(t, dir)
		if err := fs.Put(bucketEntry(fmt.Sprintf("job-%d", i), int64(2000+i), b)); err != nil {
			t.Fatal(err)
		}
		after := shardTimes(t, dir)
		written, ok := after[keyOf(b)]
		if !ok {
			t.Fatalf("put %d: the shard just written was evicted", i)
		}
		before[keyOf(b)] = written
		want := survivors(before, 5)
		if got, _ := fs.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("put %d: keys %v, a listing keeps %v", i, got, want)
		}
		// An evicted key starts over: nothing of its old shard is appended to.
		if es, err := fs.Get(keyOf(b)); err != nil || es[len(es)-1].JobID != fmt.Sprintf("job-%d", i) {
			t.Fatalf("put %d: read back %v, %v", i, es, err)
		}
	}

	// Lifting the cap stops eviction; setting it again lists again.
	fs.SetMaxKeys(0)
	for b := 20; b < 23; b++ {
		if err := fs.Put(bucketEntry("uncapped", 3000, b)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := fs.Keys(); len(got) != 8 {
		t.Fatalf("uncapped store holds %d keys, want 8", len(got))
	}
	want = survivors(shardTimes(t, dir), 2)
	fs.SetMaxKeys(2)
	if got, _ := fs.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after SetMaxKeys(2): keys %v, a listing keeps %v", got, want)
	}
}

// tmpFiles lists what a failed or interrupted write may leave behind.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, _ os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".tmp") {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFileStorePutFailureLeavesShardIntact injects the two failures that need
// no seam — the temporary file cannot be created, the shard cannot be read
// or replaced — and requires the error to be returned, the old shard to stay
// byte for byte, nothing to be left behind, and the next Put to store
// everything, the entry that failed included when it is put again.
func TestFileStorePutFailureLeavesShardIntact(t *testing.T) {
	for _, name := range []string{"temporary file is a directory", "shard path is a directory"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := fs.Put(testEntry(fmt.Sprintf("job-%d", i), int64(1000+i))); err != nil {
					t.Fatal(err)
				}
			}
			key := testEntry("", 0).Fingerprint.Key()
			p := filepath.Join(dir, key+".json")
			old, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			aside := filepath.Join(dir, "aside")
			var obstacle string
			if name == "temporary file is a directory" {
				obstacle = p + ".tmp"
			} else {
				// The shard moves aside and a directory takes its path.
				if err := os.Rename(p, aside); err != nil {
					t.Fatal(err)
				}
				obstacle = p
			}
			if err := os.MkdirAll(filepath.Join(obstacle, "full"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.Put(testEntry("job-3", 1003)); err == nil {
				t.Fatal("Put succeeded with " + name)
			}
			if _, ok := fs.shards[key]; ok {
				t.Fatal("the store still trusts what it remembers of the shard after a failed Put")
			}
			if err := os.RemoveAll(obstacle); err != nil {
				t.Fatal(err)
			}
			if obstacle == p {
				if err := os.Rename(aside, p); err != nil {
					t.Fatal(err)
				}
			}
			if now, err := os.ReadFile(p); err != nil || !bytes.Equal(now, old) {
				t.Fatalf("the shard changed under a failed Put (%v)", err)
			}
			if left := tmpFiles(t, dir); len(left) != 0 {
				t.Fatalf("left behind: %v", left)
			}
			for i := 3; i < 5; i++ {
				if err := fs.Put(testEntry(fmt.Sprintf("job-%d", i), int64(1000+i))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := fs.Get(key)
			if err != nil || len(got) != 5 {
				t.Fatalf("%d entries after the failure, want 5 (%v)", len(got), err)
			}
			for i, e := range got {
				if e.JobID != fmt.Sprintf("job-%d", i) {
					t.Fatalf("entry %d is %s", i, e.JobID)
				}
			}
		})
	}
}

// A rename that fails must not leave the temporary file either. Put reads the
// path it is about to replace, so a shard path that refuses the rename fails
// the read first; a checkpoint is written without being read, and goes
// through the same writeAtomic.
func TestFileStoreFailedRenameRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{JobID: "job-000001", Fingerprint: "k"}
	if err := fs.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "checkpoints", cp.JobID+".json")
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(p, "full"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = fs.PutCheckpoint(cp)
	if err == nil || !strings.Contains(err.Error(), "commit checkpoint") {
		t.Fatalf("PutCheckpoint over a directory: %v, want a commit error", err)
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Fatalf("left behind: %v", left)
	}
	if err := os.RemoveAll(p); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.GetCheckpoint(cp.JobID); err != nil || got == nil {
		t.Fatalf("checkpoint after the failure: %v, %v", got, err)
	}
}

// What a writer that died left behind is removed when the directory is
// opened; nothing else is.
func TestNewFileStoreSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testEntry("job", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutCheckpoint(Checkpoint{JobID: "job-000001"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dead.json.tmp", filepath.Join("checkpoints", "job-000002.json.tmp")} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := len(shardTimes(t, dir))
	if _, err := NewFileStore(dir); err != nil {
		t.Fatal(err)
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Fatalf("left behind: %v", left)
	}
	if after := len(shardTimes(t, dir)); after != before {
		t.Fatalf("opening the store changed the shard count from %d to %d", before, after)
	}
	if ids, err := fs.ListCheckpoints(); err != nil || len(ids) != 1 {
		t.Fatalf("checkpoints after the sweep: %v, %v", ids, err)
	}
}

// The shards a running service leaves are the oracle's too: sessions persist
// through the append path, and replaying what each shard holds through
// oraclePut gives the same bytes.
func TestPersistedShardsMatchOracle(t *testing.T) {
	dir, refDir := t.TempDir(), t.TempDir()
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
		for _, e := range entries {
			if err := oraclePut(refDir, e); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := os.ReadFile(filepath.Join(dir, key+".json"))
		want, _ := os.ReadFile(filepath.Join(refDir, key+".json"))
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d entries, %d bytes on disk, the oracle writes %d", key, len(entries), len(got), len(want))
		}
	}
}
