package service

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// fingerprint, and the checkpoints of jobs in flight. Implementations must
// be safe for concurrent use — the service's workers read and write it
// concurrently.
type Store interface {
	// Put appends an entry under its fingerprint key, evicting the oldest
	// beyond maxEntriesPerKey.
	Put(e Entry) error
	// Get returns the entries stored under key, oldest first (nil when the
	// key has none).
	Get(key string) ([]Entry, error)
	// Keys returns all populated keys, sorted.
	Keys() ([]string, error)
	// SetMaxKeys caps the number of distinct keys (0 or negative:
	// unbounded), evicting whole keys least-recently-written first.
	SetMaxKeys(n int)
	CheckpointStore
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

// FileStore persists the history as one shard file per fingerprint key in a
// directory (shard.go has the layout), so a service restart resumes with
// everything past sessions learned. It keeps nothing of a shard in memory:
// every Put reads the shard it extends and decides from what is there, so a
// file anyone else changed is simply what the next Put reads.
//
// A directory has one writer, one FileStore in one process, and its history
// writes are serialized; a job's checkpoint has one writer at a time (its
// checkpointer, then its worker), so checkpoints take no lock. Nor do reads,
// because a shard only grows by one whole-line append or is replaced by a
// rename. Temporary files found when the directory is opened are what a dead
// writer left behind and are removed.
type FileStore struct {
	dir     string
	mu      sync.Mutex // serializes history writes
	maxKeys int
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
	return &FileStore{dir: dir}, nil
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

// writeAtomic replaces the file at p with the parts, one after another: into
// p.tmp, then renamed over p. No error return leaves p.tmp behind. what names
// the kind of file in errors.
func writeAtomic(p, what string, parts ...[]byte) error {
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: write %s: %w", what, err)
	}
	for _, part := range parts {
		if err == nil {
			_, err = f.Write(part)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp) // the write error is the one to report
		return fmt.Errorf("service: write %s: %w", what, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		_ = os.Remove(tmp) // likewise
		return fmt.Errorf("service: commit %s: %w", what, err)
	}
	return nil
}

// appendLine appends line to the file at p, creating it: one write, which a
// crash can cut short only into a torn last line.
func appendLine(p string, line []byte) error {
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("service: write history: %w", err)
	}
	_, err = f.Write(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("service: write history: %w", err)
	}
	return nil
}

// Put implements Store. It reads the shard, and when the file is whole lines
// in order and e is not older than their newest entry, it
//   - below the cap, appends e's line;
//   - at the cap, writes the lines the cap keeps and e's, through a temporary
//     file.
//
// Anything else — an older entry, lines out of order, a last line without its
// newline, the array layout of older stores — is decoded, given e, sorted,
// capped and written again as lines, through a temporary file. A shard that
// cannot be read is left as it is, and Put fails. A Put that creates a shard
// enforces the key cap.
func (s *FileStore) Put(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Fingerprint.Key()
	p, err := s.path(key)
	if err != nil {
		return err
	}
	buf := shardBufs.Get().(*bytes.Buffer)
	defer shardBufs.Put(buf)
	data, err := readShard(p, buf)
	if err != nil {
		return err
	}
	heads, _, err := decodeShard(data, true)
	if err != nil {
		return fmt.Errorf("service: decode history %s: %w", key, err)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: encode history: %w", err)
	}
	line = append(line, "\n"...)
	n := len(heads)
	lines := len(data) == 0 || data[0] == '{' && data[len(data)-1] == '\n'
	switch {
	case !lines || !sortedByCreated(append(heads, e)):
		err = rewriteShard(p, data, e)
	case n < maxEntriesPerKey:
		err = appendLine(p, line)
	default:
		off := 0
		for range n + 1 - maxEntriesPerKey {
			off += bytes.IndexByte(data[off:], '\n') + 1
		}
		err = writeAtomic(p, "history", data[off:], line)
	}
	if err == nil && data == nil {
		s.evictLocked()
	}
	return err
}

// rewriteShard writes the shard at p again as lines: the entries of data and
// e, sorted and capped.
func rewriteShard(p string, data []byte, e Entry) error {
	entries, _, err := decodeShard(data, false)
	if err != nil {
		return fmt.Errorf("service: decode history: %w", err)
	}
	var out []byte
	for _, x := range capEntries(append(entries, e)) {
		enc, err := json.Marshal(x)
		if err != nil {
			return fmt.Errorf("service: encode history: %w", err)
		}
		out = append(append(out, enc...), '\n')
	}
	return writeAtomic(p, "history", out)
}

// SetMaxKeys caps the number of shard files (0 or negative: unbounded),
// evicting whole keys least-recently-written first — the FileStore analogue
// of MemStore.SetMaxKeys, ordered by shard modification time. The store lists
// the directory for it now and whenever a Put creates a shard.
func (s *FileStore) SetMaxKeys(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxKeys = n
	s.evictLocked()
}

// IndexPath is where the recommender keeps its k-NN index snapshot, next to
// the shards. The name carries no .json suffix, so Keys never mistakes the
// index for a history shard.
func (s *FileStore) IndexPath() string { return filepath.Join(s.dir, "knn.index") }

// evictLocked enforces the key cap: it lists the shards and deletes the
// oldest by modification time, ties on key order.
func (s *FileStore) evictLocked() {
	if s.maxKeys <= 0 {
		return
	}
	keys, err := s.Keys()
	if err != nil || len(keys) <= s.maxKeys {
		return
	}
	mtimes := make(map[string]int64, len(keys))
	for _, k := range keys {
		if fi, err := os.Stat(filepath.Join(s.dir, k+".json")); err == nil {
			mtimes[k] = fi.ModTime().UnixNano()
		}
	}
	// Keys come sorted, so a stable sort by time breaks ties on key order.
	sort.SliceStable(keys, func(a, b int) bool { return mtimes[keys[a]] < mtimes[keys[b]] })
	for _, k := range keys[:len(keys)-s.maxKeys] {
		_ = os.Remove(filepath.Join(s.dir, k+".json")) // one still there goes when the next shard is created
	}
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]Entry, error) {
	entries, _, err := s.decode(key, false)
	return entries, err
}

// heads reads a shard for what the k-NN index and a recommendation read of
// its entries: each entry without Sensitive, Important and Obs, and the
// number of its observations.
func (s *FileStore) heads(key string) ([]Entry, []int, error) {
	return s.decode(key, true)
}

// decode reads key's shard whole, or with skip its heads.
func (s *FileStore) decode(key string, skip bool) ([]Entry, []int, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, nil, err
	}
	buf := shardBufs.Get().(*bytes.Buffer)
	defer shardBufs.Put(buf)
	data, err := readShard(p, buf)
	if err != nil {
		return nil, nil, err
	}
	entries, obs, err := decodeShard(data, skip)
	if err != nil {
		return nil, nil, fmt.Errorf("service: decode history %s: %w", key, err)
	}
	return entries, obs, nil
}

// shardBufs holds the buffers readShard reads into. No decoded entry aliases
// one (decodeShard and encoding/json copy every string), so a caller puts its
// buffer back as soon as it is done with the bytes.
var shardBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readShard reads the shard at p into buf and returns its bytes, which stay
// valid until buf's next use: nil when there is no shard, empty but not nil
// when the file is empty (ReadFrom grows buf before its first read), so Put
// can tell a shard it creates from one it extends.
func readShard(p string, buf *bytes.Buffer) ([]byte, error) {
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: read history: %w", err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(f)
	_ = f.Close() // read only: nothing to lose
	if err != nil {
		return nil, fmt.Errorf("service: read history: %w", err)
	}
	return buf.Bytes(), nil
}

// sortedByCreated reports whether the entries are in the order Put keeps.
func sortedByCreated(entries []Entry) bool {
	return sort.SliceIsSorted(entries, func(a, b int) bool {
		return entries[a].CreatedUnix < entries[b].CreatedUnix
	})
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: list history: %w", err)
	}
	var out []string
	for _, de := range names {
		// Skip stray or legacy files whose names the key validator (and
		// therefore Get) would reject; one such file must not poison the
		// whole history listing.
		if key, ok := strings.CutSuffix(de.Name(), ".json"); ok && ValidKey(key) {
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
