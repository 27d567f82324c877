package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// maxEntriesPerKey bounds a history shard: when a fingerprint accumulates
// more finished sessions, the oldest are dropped. Recent sessions dominate
// warm-start value anyway (the cluster and data distribution they saw are
// closest to the present), and the cap keeps FileStore shards and Prior
// construction O(1) per key.
const maxEntriesPerKey = 32

// Observation is one persisted tuning run: the executed configuration in
// natural units together with its size and latency. QuerySecs preserves the
// per-query breakdown so a future session can re-express the observation on
// the scale of whatever reduced query application its own QCSA produces.
type Observation struct {
	Params    []float64          `json:"params"`
	DataGB    float64            `json:"data_gb"`
	Sec       float64            `json:"sec"`
	QuerySecs map[string]float64 `json:"query_secs,omitempty"`
}

// Entry is one finished tuning session as persisted in the history store.
type Entry struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// JobID is the service job that produced the entry.
	JobID string `json:"job_id"`
	// CreatedUnix is the completion time (Unix seconds); entries within a
	// key are ordered by it.
	CreatedUnix int64 `json:"created_unix"`
	// TargetGB is the data size the session tuned for.
	TargetGB float64 `json:"target_gb"`
	// TunedSec / OverheadSec mirror the session report.
	TunedSec    float64 `json:"tuned_sec"`
	OverheadSec float64 `json:"overhead_sec"`
	// BestParams is the tuned configuration as a name→value map.
	BestParams map[string]float64 `json:"best_params"`
	// Sensitive and Important are the session's QCSA / IICP artifacts —
	// query names and parameter names (names, not indices, so entries
	// survive parameter-table reorderings).
	Sensitive []string `json:"sensitive,omitempty"`
	Important []string `json:"important,omitempty"`
	// Obs are the session's full-application observations.
	Obs []Observation `json:"obs"`
}

// Store is the history store: finished sessions keyed by workload
// fingerprint. Implementations must be safe for concurrent use — the
// service's workers read and write it concurrently.
type Store interface {
	// Put appends an entry under its fingerprint key, evicting the oldest
	// beyond maxEntriesPerKey.
	Put(e Entry) error
	// Get returns the entries stored under key, oldest first (nil when the
	// key has none).
	Get(key string) ([]Entry, error)
	// Keys returns all populated keys, sorted.
	Keys() ([]string, error)
}

// MemStore is the in-memory Store used by tests and by service instances
// that do not need persistence across restarts.
type MemStore struct {
	mu      sync.RWMutex
	m       map[string][]Entry
	cps     map[string]Checkpoint
	maxKeys int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[string][]Entry{}, cps: map[string]Checkpoint{}}
}

// SetMaxKeys caps the number of distinct fingerprint keys (0 or negative:
// unbounded). When a Put pushes the store past the cap, whole keys are
// evicted least-recently-written first (by the newest entry's CreatedUnix,
// ties on key order), so a long-lived service's store stays bounded no
// matter how many distinct workloads pass through it.
func (s *MemStore) SetMaxKeys(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxKeys = n
	s.evictLocked()
}

// Put implements Store.
func (s *MemStore) Put(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := e.Fingerprint.Key()
	s.m[k] = capEntries(append(s.m[k], e))
	s.evictLocked()
	return nil
}

// evictLocked enforces the key cap.
func (s *MemStore) evictLocked() {
	if s.maxKeys <= 0 {
		return
	}
	for len(s.m) > s.maxKeys {
		victim := ""
		var oldest int64
		for k, es := range s.m {
			newest := es[len(es)-1].CreatedUnix // capEntries sorts ascending
			if victim == "" || newest < oldest || (newest == oldest && k < victim) {
				victim, oldest = k, newest
			}
		}
		delete(s.m, victim)
	}
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Entry(nil), s.m[key]...), nil
}

// Keys implements Store.
func (s *MemStore) Keys() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// FileStore persists the history as one JSON file per fingerprint key in a
// directory, written atomically (temp file + rename), so a service restart
// resumes with everything past sessions learned.
//
// A directory has one writer: one FileStore in one process. Under that
// assumption the store remembers what it last wrote or read of each shard and
// a Put appends to the shard's bytes instead of decoding and re-encoding
// them. A shard that anyone else changed is still noticed — its size or
// modification time no longer match what the store remembers — and is read
// again in full, so a hand-edited or restored file costs one slow Put, never
// a wrong one. Temporary files found when the directory is opened are what a
// dead writer left behind and are removed.
type FileStore struct {
	dir     string
	mu      sync.Mutex
	maxKeys int
	// shards is what the store knows of each shard it wrote or read.
	shards map[string]shardState
	// mtimes orders every shard in the directory for key eviction, by
	// modification time. SetMaxKeys lists the directory to build it and Put
	// keeps it current; nil while no cap is set.
	mtimes map[string]int64
}

// shardState describes a shard file as the store last wrote or read it.
type shardState struct {
	entries int   // how many entries the file holds
	newest  int64 // the last (and largest) CreatedUnix
	size    int64
	mtime   int64 // modification time, Unix nanoseconds
}

// stateOf describes the file fi, which holds the given entries.
func stateOf(fi os.FileInfo, entries int, newest int64) shardState {
	return shardState{entries: entries, newest: newest, size: fi.Size(), mtime: fi.ModTime().UnixNano()}
}

// matches reports whether the file still is the one the state describes.
func (st shardState) matches(fi os.FileInfo) bool {
	return fi.Size() == st.size && fi.ModTime().UnixNano() == st.mtime
}

// NewFileStore opens (creating if needed) a file-backed store in dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: history dir: %w", err)
	}
	for _, pattern := range []string{"*.json.tmp", filepath.Join("checkpoints", "*.json.tmp")} {
		stale, _ := filepath.Glob(filepath.Join(dir, pattern)) // the pattern is well-formed
		for _, tmp := range stale {
			_ = os.Remove(tmp) // a leftover that cannot be removed is overwritten by the next write
		}
	}
	return &FileStore{dir: dir, shards: map[string]shardState{}}, nil
}

// path maps a key to its shard file, refusing any key that could name a
// file outside the store directory. Fingerprint.Key() sanitizes its inputs,
// but the store is also reachable with caller-supplied keys (Get over HTTP,
// entries deserialized from disk), so it validates independently.
func (s *FileStore) path(key string) (string, error) {
	if !ValidKey(key) {
		return "", fmt.Errorf("service: invalid history key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// writeAtomic replaces the file at p with what write produces: into p.tmp,
// then renamed over p. No error return leaves p.tmp behind. what names the
// kind of file in errors. The FileInfo is that of the new file.
func writeAtomic(p, what string, write func(f *os.File) error) (os.FileInfo, error) {
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: write %s: %w", what, err)
	}
	err = write(f)
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp) // the write error is the one to report
		return nil, fmt.Errorf("service: write %s: %w", what, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		_ = os.Remove(tmp) // likewise
		return nil, fmt.Errorf("service: commit %s: %w", what, err)
	}
	return fi, nil
}

// writeAll writes the parts to f one after another.
func writeAll(f *os.File, parts ...[]byte) error {
	for _, part := range parts {
		if _, err := f.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// Put implements Store.
func (s *FileStore) Put(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Fingerprint.Key()
	p, err := s.path(key)
	if err != nil {
		return err
	}
	st, done, err := s.appendShard(p, s.shards[key], e)
	if err == nil && !done {
		st, done, err = s.spliceShard(p, key, e)
	}
	if err == nil && !done {
		st, err = s.rewriteShard(p, key, e)
	}
	if err != nil {
		// Whatever is on disk now, the next Put reads it before it writes.
		delete(s.shards, key)
		return err
	}
	s.shards[key] = st
	if s.mtimes != nil {
		s.mtimes[key] = st.mtime
		s.evictLocked()
	}
	return nil
}

// shardTail is how every shard this store writes ends: the closing brace of
// the last entry, indented one space, then the closing bracket of the list.
const shardTail = "\n }\n]"

// appendShard writes the shard with e added by copying the file's bytes up to
// the closing bracket and encoding only e — the same bytes rewriteShard
// produces, without decoding the entries already there. That holds only when
// the file still is the one st describes, in this store's own layout, below
// the per-key cap, and e is not older than its newest entry; in every other
// case appendShard reports false and has written nothing.
func (s *FileStore) appendShard(p string, st shardState, e Entry) (shardState, bool, error) {
	if st.entries == 0 || st.entries >= maxEntriesPerKey || e.CreatedUnix < st.newest {
		return shardState{}, false, nil
	}
	src, err := os.Open(p)
	if err != nil {
		return shardState{}, false, nil
	}
	defer src.Close()
	if fi, err := src.Stat(); err != nil || !st.matches(fi) {
		return shardState{}, false, nil
	}
	var tail [len(shardTail)]byte
	if _, err := src.ReadAt(tail[:], st.size-int64(len(tail))); err != nil || string(tail[:]) != shardTail {
		return shardState{}, false, nil
	}
	enc, err := json.MarshalIndent(e, " ", " ")
	if err != nil {
		return shardState{}, false, fmt.Errorf("service: encode history: %w", err)
	}
	fi, err := writeAtomic(p, "history", func(dst *os.File) error {
		if _, err := io.CopyN(dst, src, st.size-int64(len("\n]"))); err != nil {
			return err
		}
		return writeAll(dst, []byte(",\n "), enc, []byte("\n]"))
	})
	if err != nil {
		return shardState{}, false, err
	}
	return stateOf(fi, st.entries+1, e.CreatedUnix), true, nil
}

// spliceShard is what Put does at the per-key cap, where appendShard stops, and
// after anything that made the store forget the shard: it reads the file,
// scans it for where its entries lie, and writes the bytes of those the cap
// keeps followed by e — the bytes rewriteShard produces, again without
// building or encoding the entries already there. That holds only when the
// file is in this store's own layout, its entries in order, and e not older
// than the newest; in every other case spliceShard reports false and has
// written nothing.
func (s *FileStore) spliceShard(p, key string, e Entry) (shardState, bool, error) {
	data, _, err := s.read(key)
	if err != nil || data == nil {
		return shardState{}, false, nil // rewriteShard reports what is wrong with the file
	}
	entries, marks, ok := decodeShard(data, true)
	n := len(entries)
	if !ok || !sortedByCreated(entries) || e.CreatedUnix < entries[n-1].CreatedUnix {
		return shardState{}, false, nil
	}
	enc, err := json.MarshalIndent(e, " ", " ")
	if err != nil {
		return shardState{}, false, fmt.Errorf("service: encode history: %w", err)
	}
	first := max(0, n+1-maxEntriesPerKey)
	kept := data[marks[first].off:marks[n-1].end]
	fi, err := writeAtomic(p, "history", func(dst *os.File) error {
		return writeAll(dst, []byte("[\n "), kept, []byte(",\n "), enc, []byte("\n]"))
	})
	if err != nil {
		return shardState{}, false, err
	}
	return stateOf(fi, n-first+1, e.CreatedUnix), true, nil
}

// rewriteShard decodes the shard, adds e, sorts, caps and encodes it again:
// what Put falls back to for a first write, an entry older than the shard's
// newest, and a file laid out by anyone else.
func (s *FileStore) rewriteShard(p, key string, e Entry) (shardState, error) {
	entries, err := s.load(key)
	if err != nil {
		return shardState{}, err
	}
	entries = capEntries(append(entries, e))
	data, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		return shardState{}, fmt.Errorf("service: encode history: %w", err)
	}
	fi, err := writeAtomic(p, "history", func(f *os.File) error { return writeAll(f, data) })
	if err != nil {
		return shardState{}, err
	}
	return stateOf(fi, len(entries), entries[len(entries)-1].CreatedUnix), nil
}

// SetMaxKeys caps the number of shard files (0 or negative: unbounded),
// evicting whole keys least-recently-written first — the FileStore analogue
// of MemStore.SetMaxKeys, ordered by shard modification time. Every call
// lists the directory, so it also picks up what changed there since.
func (s *FileStore) SetMaxKeys(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxKeys = n
	s.mtimes = nil
	if n <= 0 {
		return
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	s.mtimes = map[string]int64{}
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || !ValidKey(key) {
			continue
		}
		if info, err := de.Info(); err == nil {
			s.mtimes[key] = info.ModTime().UnixNano()
		}
	}
	s.evictLocked()
}

// IndexPath is where the recommender keeps its k-NN index snapshot, next to
// the shards. The name carries no .json suffix, so Keys never mistakes the
// index for a history shard.
func (s *FileStore) IndexPath() string { return filepath.Join(s.dir, "knn.index") }

// evictLocked enforces the key cap by deleting the oldest shard files.
func (s *FileStore) evictLocked() {
	if s.maxKeys <= 0 || len(s.mtimes) <= s.maxKeys {
		return
	}
	keys := make([]string, 0, len(s.mtimes))
	for k := range s.mtimes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if ma, mb := s.mtimes[keys[a]], s.mtimes[keys[b]]; ma != mb {
			return ma < mb
		}
		return keys[a] < keys[b]
	})
	for _, k := range keys[:len(keys)-s.maxKeys] {
		if err := os.Remove(filepath.Join(s.dir, k+".json")); err != nil && !os.IsNotExist(err) {
			continue // still there: the next Put tries again
		}
		delete(s.mtimes, k)
		delete(s.shards, k)
	}
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load(key)
}

// read returns the bytes of key's shard and the file they came from, both nil
// when there is no such file.
func (s *FileStore) read(key string) ([]byte, os.FileInfo, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("service: read history: %w", err)
	}
	defer f.Close()
	// Size, time and bytes all come from the one open file, so the state
	// describes exactly what was decoded even if the path is replaced now.
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("service: read history: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, fmt.Errorf("service: read history: %w", err)
	}
	return data, fi, nil
}

// load reads and decodes a shard and remembers its state for the next Put.
func (s *FileStore) load(key string) ([]Entry, error) {
	entries, _, err := s.decode(key, false)
	return entries, err
}

// heads reads a shard for what the k-NN index keeps of its entries: each
// entry without BestParams, Sensitive, Important and Obs, and the number of its
// observations. Like Get, it leaves the shard's state behind for the next Put.
func (s *FileStore) heads(key string) ([]Entry, []entryMark, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decode(key, true)
}

// decode is load, or with skip heads: the store's own layout through
// decodeShard, anything else through encoding/json.
func (s *FileStore) decode(key string, skip bool) ([]Entry, []entryMark, error) {
	delete(s.shards, key)
	data, fi, err := s.read(key)
	if err != nil {
		return nil, nil, err
	}
	if data == nil {
		delete(s.mtimes, key)
		return nil, nil, nil
	}
	entries, marks, ok := decodeShard(data, skip)
	if !ok {
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, nil, fmt.Errorf("service: decode history %s: %w", key, err)
		}
		if skip {
			marks = marksOf(entries)
		}
	}
	if n := len(entries); n > 0 && sortedByCreated(entries) {
		s.shards[key] = stateOf(fi, n, entries[n-1].CreatedUnix)
	}
	return entries, marks, nil
}

// marksOf counts the observations of entries read whole.
func marksOf(entries []Entry) []entryMark {
	marks := make([]entryMark, len(entries))
	for i, e := range entries {
		marks[i].obs = len(e.Obs)
	}
	return marks
}

// sortedByCreated reports whether the entries are in the order Put keeps.
func sortedByCreated(entries []Entry) bool {
	return sort.SliceIsSorted(entries, func(a, b int) bool {
		return entries[a].CreatedUnix < entries[b].CreatedUnix
	})
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: list history: %w", err)
	}
	var out []string
	for _, de := range names {
		n := de.Name()
		if !strings.HasSuffix(n, ".json") {
			continue
		}
		// Skip stray or legacy files whose names the key validator (and
		// therefore Get) would reject; one such file must not poison the
		// whole history listing.
		if key := strings.TrimSuffix(n, ".json"); ValidKey(key) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// capEntries enforces maxEntriesPerKey, keeping the newest.
func capEntries(entries []Entry) []Entry {
	sort.SliceStable(entries, func(a, b int) bool {
		return entries[a].CreatedUnix < entries[b].CreatedUnix
	})
	if n := len(entries); n > maxEntriesPerKey {
		entries = append([]Entry(nil), entries[n-maxEntriesPerKey:]...)
	}
	return entries
}
