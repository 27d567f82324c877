package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/obs"
	"locat/internal/runner"
)

func testEntry(jobID string, created int64) Entry {
	return Entry{
		Fingerprint: Fingerprint{Cluster: "arm", Benchmark: "TPC-H", SizeBucket: 7, Techniques: "qid"},
		JobID:       jobID,
		CreatedUnix: created,
		TargetGB:    100,
		TunedSec:    123.4,
		OverheadSec: 9876.5,
		BestParams:  map[string]float64{"spark.executor.cores": 4},
		Sensitive:   []string{"q3", "q7"},
		Important:   []string{"spark.executor.cores", "spark.executor.memory"},
		Obs: []Observation{
			{
				Params:    []float64{1, 2, 3},
				DataGB:    100,
				Sec:       456.7,
				QuerySecs: map[string]float64{"q3": 100.5, "q7": 356.2},
			},
		},
	}
}

func roundTrip(t *testing.T, s Store) {
	t.Helper()
	e := testEntry("job-000001", 1000)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.Fingerprint.Key())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d entries, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0], e) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got[0], e)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != e.Fingerprint.Key() {
		t.Fatalf("keys = %v", keys)
	}
	// Missing key is empty, not an error.
	if es, err := s.Get("nope"); err != nil || len(es) != 0 {
		t.Fatalf("missing key: %v, %v", es, err)
	}
}

func TestMemStoreRoundTrip(t *testing.T) { roundTrip(t, NewMemStore()) }

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, fs)
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("job-000002", 2000)
	if err := fs.Put(e); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory sees the entry — the service
	// restart scenario.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Get(e.Fingerprint.Key())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Fatalf("reopen lost the entry: %+v", got)
	}
}

func TestStoreCapsEntriesPerKey(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < maxEntriesPerKey+10; i++ {
		if err := s.Put(testEntry("job", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Get(testEntry("job", 0).Fingerprint.Key())
	if len(got) != maxEntriesPerKey {
		t.Fatalf("got %d entries, want cap %d", len(got), maxEntriesPerKey)
	}
	// Newest survive.
	if got[len(got)-1].CreatedUnix != int64(maxEntriesPerKey+9) {
		t.Fatalf("newest entry evicted; last created %d", got[len(got)-1].CreatedUnix)
	}
	if got[0].CreatedUnix != 10 {
		t.Fatalf("oldest kept entry created %d, want 10", got[0].CreatedUnix)
	}
}

// TestFileStorePathInjectionRegression is the security regression test: an
// entry whose fingerprint carries a hostile benchmark name must not write
// outside the store directory, and caller-supplied traversal keys must be
// rejected outright.
func TestFileStorePathInjectionRegression(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("job-000066", 3000)
	e.Fingerprint.Benchmark = "../../escape"
	if err := fs.Put(e); err != nil {
		t.Fatalf("sanitized put failed: %v", err)
	}
	// Nothing may appear outside the store directory.
	if _, err := os.Stat(filepath.Join(parent, "escape.json")); !os.IsNotExist(err) {
		t.Fatalf("path injection wrote outside the store: %v", err)
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store" {
		t.Fatalf("unexpected files next to the store: %v", entries)
	}
	// The entry is retrievable under its sanitized key, which stays inside.
	got, err := fs.Get(e.Fingerprint.Key())
	if err != nil || len(got) != 1 {
		t.Fatalf("sanitized key not retrievable: %v, %d entries", err, len(got))
	}
	inside, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inside) != 1 {
		t.Fatalf("store dir holds %d files, want 1", len(inside))
	}

	// Raw traversal keys are rejected, not resolved.
	for _, key := range []string{"../evil", "..", "a/b", `a\b`} {
		if _, err := fs.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a traversal key", key)
		}
	}
}

// Checkpoint I/O never waits behind a history write: with FileStore.mu held
// for as long as the test runs, every checkpoint method still returns.
func TestFileStoreCheckpointsSkipHistoryLock(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	done := make(chan error, 2) // the checkpoint calls' verdict, or the timer's
	timer := time.AfterFunc(2*time.Second, func() {
		done <- errors.New("checkpoint I/O still blocked after 2 s behind the history write lock")
	})
	defer timer.Stop()
	go func() {
		cp := Checkpoint{JobID: "job-000001", Spec: quickSpec(100, 1)}
		if err := fs.PutCheckpoint(cp); err != nil {
			done <- err
			return
		}
		if got, err := fs.GetCheckpoint(cp.JobID); err != nil || got == nil {
			done <- fmt.Errorf("GetCheckpoint = %v, %v; want the checkpoint just put", got, err)
			return
		}
		if ids, err := fs.ListCheckpoints(); err != nil || len(ids) != 1 {
			done <- fmt.Errorf("ListCheckpoints = %v, %v; want the one job", ids, err)
			return
		}
		done <- fs.DeleteCheckpoint(cp.JobID)
	}()
	//locat:allow lockcheck the test holds the history lock on purpose, to show checkpoint I/O does not take it
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreConcurrentPutGet exercises the store under the service's
// real access pattern — workers persisting sessions while others retrieve
// priors — and is run with -race in CI.
func TestFileStoreConcurrentPutGet(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testEntry("job", 0).Fingerprint.Key()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := fs.Put(testEntry(fmt.Sprintf("job-%d-%d", w, i), int64(w*100+i))); err != nil {
					errs <- err
					return
				}
				if _, err := fs.Get(key); err != nil {
					errs <- err
					return
				}
				if _, err := fs.Keys(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := fs.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != maxEntriesPerKey {
		t.Fatalf("got %d entries after concurrent puts, want cap %d", len(got), maxEntriesPerKey)
	}
}

func TestFileStoreKeysSkipsInvalidFilenames(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testEntry("job-000077", 4000)); err != nil {
		t.Fatal(err)
	}
	// A stray file whose name fails key validation (e.g. written by hand or
	// by a pre-sanitization build) must not poison the listing.
	if err := os.WriteFile(filepath.Join(dir, "bad name.json"), []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := fs.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("job-000077", 4000).Fingerprint.Key()
	if len(keys) != 1 || keys[0] != want {
		t.Fatalf("Keys() = %v; want [%s]", keys, want)
	}
	// Every listed key must be Get-able — the History() invariant.
	for _, k := range keys {
		if _, err := fs.Get(k); err != nil {
			t.Fatalf("listed key %q not readable: %v", k, err)
		}
	}
}

// checkpointRoundTrip exercises the CheckpointStore surface shared by both
// built-in stores.
func checkpointRoundTrip(t *testing.T, s CheckpointStore) {
	t.Helper()
	cp := Checkpoint{
		JobID:       "job-000007",
		Spec:        JobSpec{Cluster: "arm", Benchmark: "TPC-H", DataSizeGB: 100, Seed: 3},
		Fingerprint: "arm_TPC-H_7_qid",
		CreatedUnix: 4242,
		Entries: []runner.TraceEntry{
			{Kind: runner.TraceApp, Idx: 2, App: "TPC-H", NQ: 22,
				Conf: []float64{1, 2, 3}, DataGB: 100,
				Result: &runner.AppResult{Sec: 99.5, Queries: []runner.QueryResult{{Name: "q1", Sec: 9.5}}}},
			{Kind: runner.TraceNoiseless, App: "TPC-H", NQ: 22,
				Conf: []float64{1, 2, 3}, DataGB: 100, Sec: 88.25},
		},
	}
	if got, err := s.GetCheckpoint(cp.JobID); err != nil || got != nil {
		t.Fatalf("empty store GetCheckpoint = %+v, %v; want nil, nil", got, err)
	}
	if err := s.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCheckpoint(cp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(*got, cp) {
		t.Fatalf("checkpoint round trip mismatch:\n got  %+v\n want %+v", got, cp)
	}
	ids, err := s.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != cp.JobID {
		t.Fatalf("ListCheckpoints = %v", ids)
	}
	// Replacement, not append: a re-Put supersedes the previous snapshot.
	cp2 := cp
	cp2.Entries = cp.Entries[:1]
	cp2.CreatedUnix = 4300
	if err := s.PutCheckpoint(cp2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetCheckpoint(cp.JobID); got == nil || len(got.Entries) != 1 {
		t.Fatalf("re-Put did not replace the checkpoint: %+v", got)
	}
	if err := s.DeleteCheckpoint(cp.JobID); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetCheckpoint(cp.JobID); got != nil {
		t.Fatalf("checkpoint survived deletion: %+v", got)
	}
	// Deleting the absent checkpoint is a no-op, not an error.
	if err := s.DeleteCheckpoint(cp.JobID); err != nil {
		t.Fatal(err)
	}
	// Invalid job IDs are refused before touching the filesystem.
	if _, err := s.GetCheckpoint("../escape"); err == nil {
		if _, isMem := s.(*MemStore); !isMem {
			t.Fatal("path-escaping checkpoint ID accepted")
		}
	}
}

func TestMemStoreCheckpointRoundTrip(t *testing.T) { checkpointRoundTrip(t, NewMemStore()) }

func TestFileStoreCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkpointRoundTrip(t, fs)

	// Checkpoints survive reopening the directory — the resume scenario.
	cp := Checkpoint{JobID: "job-000009", Spec: JobSpec{Benchmark: "TPC-H"}}
	if err := fs.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.GetCheckpoint(cp.JobID)
	if err != nil || got == nil || got.Spec.Benchmark != "TPC-H" {
		t.Fatalf("reopen lost the checkpoint: %+v, %v", got, err)
	}
	// Checkpoint files live in their own subdirectory and never shadow
	// history shards.
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", cp.JobID+".json")); err != nil {
		t.Fatal(err)
	}
}

// holdStore holds the first checkpoint write that carries a run until a
// later write has landed, or 200 ms pass: the interleaving two batch-pool
// workers flushing at once can produce.
type holdStore struct {
	*MemStore
	held, landed chan struct{}
	writes       atomic.Int32
}

func (h *holdStore) PutCheckpoint(cp Checkpoint) error {
	if len(cp.Entries) == 0 {
		return h.MemStore.PutCheckpoint(cp)
	}
	if h.writes.Add(1) > 1 {
		err := h.MemStore.PutCheckpoint(cp)
		close(h.landed)
		return err
	}
	close(h.held)
	select {
	case <-h.landed:
	case <-time.After(200 * time.Millisecond):
	}
	return h.MemStore.PutCheckpoint(cp)
}

// Two runs that complete on different workers each flush a snapshot; the
// older snapshot must never be persisted over the newer one, or the stored
// checkpoint loses a paid run.
func TestCheckpointWritesLandInOrder(t *testing.T) {
	st := &holdStore{MemStore: NewMemStore(), held: make(chan struct{}), landed: make(chan struct{})}
	spec := quickSpec(80, 4)
	j := &job{id: "job-000001", spec: spec, fp: NewFingerprint(spec)}
	m := &serviceMetrics{checkpointWrite: obs.NewRegistry().Histogram("locat_checkpoint_write_seconds", "", obs.DurationBuckets)}
	c := newCheckpointer(st, j, 1, m, nil)
	var wg sync.WaitGroup
	run := func(idx uint64) {
		defer wg.Done()
		c.onRun(runner.TraceEntry{Kind: runner.TraceApp, Idx: idx})
	}
	wg.Add(2)
	go run(0)
	<-st.held
	go run(1)
	wg.Wait()
	cp, err := st.GetCheckpoint(j.id)
	if err != nil || cp == nil || len(cp.Entries) != 2 {
		t.Fatalf("stored checkpoint %+v (%v); want both runs", cp, err)
	}
}

// bucketEntry is testEntry under a distinct fingerprint key per bucket.
func bucketEntry(jobID string, created int64, bucket int) Entry {
	e := testEntry(jobID, created)
	e.Fingerprint.SizeBucket = bucket
	return e
}

func TestMemStoreMaxKeys(t *testing.T) {
	s := NewMemStore()
	s.SetMaxKeys(2)
	for i := 0; i < 3; i++ {
		// Key i's newest entry is older for smaller i.
		if err := s.Put(bucketEntry(fmt.Sprintf("job-%06d", i+1), int64(1000+i), i)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		bucketEntry("x", 0, 1).Fingerprint.Key(),
		bucketEntry("x", 0, 2).Fingerprint.Key(),
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys after eviction = %v, want %v (oldest key evicted)", keys, want)
	}
	// A fresh entry under a surviving key does not evict anything further.
	if err := s.Put(bucketEntry("job-000009", 2000, 2)); err != nil {
		t.Fatal(err)
	}
	if keys, _ = s.Keys(); len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestFileStoreMaxKeys(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 3; i++ {
		e := bucketEntry(fmt.Sprintf("job-%06d", i+1), int64(1000+i), i)
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, e.Fingerprint.Key()+".json"))
	}
	// Eviction orders shards by modification time; make it unambiguous.
	for i, p := range paths {
		mt := time.Unix(int64(10000+i), 0)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetMaxKeys(2)
	keys, err := fs.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		bucketEntry("x", 0, 1).Fingerprint.Key(),
		bucketEntry("x", 0, 2).Fingerprint.Key(),
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys after eviction = %v, want %v (oldest shard evicted)", keys, want)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatalf("evicted shard still on disk: %v", err)
	}
}

// TestFileStoreAppendsWithoutDecoding pins the cost of the append path: a Put
// below the cap adds the entry's line after the shard's bytes and allocates
// what encoding the entry and scanning the shard's heads allocate — a head
// keeps its best_params, two allocations for this one-key map — not what
// decoding the shard would.
func TestFileStoreAppendsWithoutDecoding(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
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
	p := filepath.Join(dir, e.Fingerprint.Key()+".json")
	before, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(e); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(p); !bytes.Equal(after, append(append(before, line...), '\n')) {
		t.Fatal("the Put did not append the entry's line to the shard's bytes")
	}
	encode := testing.AllocsPerRun(5, func() {
		if _, err := json.Marshal(e); err != nil {
			t.Fatal(err)
		}
	})
	// Five measured runs and a warm-up stay well below the per-key cap: the
	// shard holds at most ten entries.
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
	if limit := encode + 40 + 2*10; put > limit {
		t.Fatalf("Put made %v allocations, want at most %v (encoding the entry makes %v)", put, limit, encode)
	}
	if put >= decode {
		t.Fatalf("Put made %v allocations, no fewer than the %v of decoding the shard", put, decode)
	}
}

// shardTimes lists the shard files of dir as key → modification time.
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
// ones a listing of the directory keeps, both when SetMaxKeys evicts and when
// a Put that creates a shard does.
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
// no seam — the temporary file of a Put at the cap cannot be created, the
// shard cannot be read — and requires the error to be returned, the old shard
// to stay byte for byte, nothing to be left behind, and the next Put to store
// everything, the entry that failed included when it is put again.
func TestFileStorePutFailureLeavesShardIntact(t *testing.T) {
	job := func(i int) Entry { return testEntry(fmt.Sprintf("job-%d", i), int64(1000+i)) }
	for _, name := range []string{"temporary file is a directory", "shard path is a directory"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < maxEntriesPerKey; i++ {
				if err := fs.Put(job(i)); err != nil {
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
			if err := fs.Put(job(maxEntriesPerKey)); err == nil {
				t.Fatal("Put succeeded with " + name)
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
			for i := maxEntriesPerKey; i < maxEntriesPerKey+2; i++ {
				if err := fs.Put(job(i)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := fs.Get(key)
			if err != nil || len(got) != maxEntriesPerKey {
				t.Fatalf("%d entries after the failure, want %d (%v)", len(got), maxEntriesPerKey, err)
			}
			for i, e := range got {
				if e.JobID != job(i+2).JobID {
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

// onePool makes sync.Pool hand back what was put last, so successive shard
// reads share one buffer: one P, and no collection to clear the pool. Under
// -race the pool still drops one Put in four at random.
func onePool(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestFileStoreEntriesOutliveTheReadBuffer: the entries one read returns, whole
// and as heads, are unchanged after reads of another shard have filled the
// same buffer with other bytes at the places their strings came from.
func TestFileStoreEntriesOutliveTheReadBuffer(t *testing.T) {
	onePool(t)
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// b is a byte for byte, with every lower-case letter but z moved one on:
	// the same layout, a different byte wherever a string is.
	shift := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= 'a' && r < 'z' {
				return r + 1
			}
			return r
		}, s)
	}
	shiftAll := func(ss []string) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = shift(s)
		}
		return out
	}
	shiftKeys := func(m map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[shift(k)] = v
		}
		return out
	}
	a := testEntry("job-000001", 1000)
	b := a
	b.Fingerprint.Cluster, b.Fingerprint.Techniques = shift(a.Fingerprint.Cluster), shift(a.Fingerprint.Techniques)
	b.JobID, b.BestParams = shift(a.JobID), shiftKeys(a.BestParams)
	b.Sensitive, b.Important = shiftAll(a.Sensitive), shiftAll(a.Important)
	b.Obs = []Observation{a.Obs[0]}
	b.Obs[0].QuerySecs = shiftKeys(a.Obs[0].QuerySecs)
	for _, e := range []Entry{a, b} {
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := fs.Get(a.Fingerprint.Key())
	if err != nil {
		t.Fatal(err)
	}
	heads, _, err := fs.heads(a.Fingerprint.Key())
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if got, err := fs.Get(b.Fingerprint.Key()); err != nil || !reflect.DeepEqual(got, []Entry{b}) {
			t.Fatalf("Get of the second shard = %+v, %v", got, err)
		}
		if _, _, err := fs.heads(b.Fingerprint.Key()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole, []Entry{a}) {
		t.Fatalf("an entry read whole changed when another shard was read:\n got  %+v\n want %+v", whole, a)
	}
	if want := headsOf([]Entry{a}); !reflect.DeepEqual(heads, want) {
		t.Fatalf("a head changed when another shard was read:\n got  %+v\n want %+v", heads, want)
	}
}

// TestFileStoreWarmHeadsAllocateLessThanTheShard: once a read buffer is in the
// pool, reading a shard's heads allocates the heads, not another copy of the
// file; a read into a fresh buffer alone costs the shard's size.
func TestFileStoreWarmHeadsAllocateLessThanTheShard(t *testing.T) {
	onePool(t)
	dir := t.TempDir()
	shard := seedShard(t)
	if err := os.WriteFile(filepath.Join(dir, "arm_TPC-H_b7_qid.json"), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		if heads, _, err := fs.heads("arm_TPC-H_b7_qid"); err != nil || len(heads) != 2 {
			t.Fatalf("heads = %d entries, %v; want the seed's 2", len(heads), err)
		}
	}
	read()
	// The least of several reads: under -race the pool drops some buffers.
	least := uint64(math.MaxUint64)
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm heads read allocates %d bytes of a %d-byte shard", least, len(shard))
	if least >= uint64(len(shard)) {
		t.Fatalf("a warm heads read allocates %d bytes, not less than the %d-byte shard", least, len(shard))
	}
}

// TestReadShardTellsMissingFromEmpty: readShard returns nil for a shard that
// is not there and an empty, non-nil slice for an empty file, into a fresh
// buffer or a used one. Put creates a shard, and enforces the key cap, only
// on the nil.
func TestReadShardTellsMissingFromEmpty(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, buf := range []*bytes.Buffer{new(bytes.Buffer), bytes.NewBufferString("a line left over\n")} {
		if data, err := readShard(filepath.Join(dir, "missing.json"), buf); err != nil || data != nil {
			t.Fatalf("a missing shard reads %q, %v; want nil", data, err)
		}
		if data, err := readShard(empty, buf); err != nil || data == nil || len(data) != 0 {
			t.Fatalf("an empty shard reads %q (nil %t), %v; want empty and not nil", data, data == nil, err)
		}
	}
}
