package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"locat/internal/progress"
	"locat/internal/runner"
)

// Checkpoint is the persisted mid-session state of a running job: the spec
// (so a restarted service can requeue it) and every execution the session
// already paid for (so the resumed session never pays for them again).
type Checkpoint struct {
	JobID       string  `json:"job_id"`
	Spec        JobSpec `json:"spec"`
	Fingerprint string  `json:"fingerprint"`
	// CreatedUnix is the time of the last checkpoint write (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Entries are the session's paid executions in completion order, in the
	// trace-entry format the runner.Cache resume layer consumes.
	Entries []runner.TraceEntry `json:"entries"`
}

// CheckpointStore is the half of Store that checkpoint/resume rides on.
type CheckpointStore interface {
	// PutCheckpoint replaces the job's checkpoint.
	PutCheckpoint(cp Checkpoint) error
	// GetCheckpoint returns the job's checkpoint, or nil when it has none.
	GetCheckpoint(jobID string) (*Checkpoint, error)
	// ListCheckpoints returns the job IDs holding checkpoints, sorted.
	ListCheckpoints() ([]string, error)
	// DeleteCheckpoint removes the job's checkpoint (a no-op when absent).
	DeleteCheckpoint(jobID string) error
}

// PutCheckpoint implements CheckpointStore.
func (s *MemStore) PutCheckpoint(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cps[cp.JobID] = cp
	return nil
}

// GetCheckpoint implements CheckpointStore.
func (s *MemStore) GetCheckpoint(jobID string) (*Checkpoint, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp, ok := s.cps[jobID]
	if !ok {
		return nil, nil
	}
	return &cp, nil
}

// ListCheckpoints implements CheckpointStore.
func (s *MemStore) ListCheckpoints() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cps))
	for id := range s.cps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteCheckpoint implements CheckpointStore.
func (s *MemStore) DeleteCheckpoint(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cps, jobID)
	return nil
}

// cpPath maps a job ID to its checkpoint file under dir/checkpoints,
// refusing IDs that could escape the directory — checkpoints are reloaded
// from disk on restart, so the IDs in file names are untrusted input.
func (s *FileStore) cpPath(jobID string) (string, error) {
	if !ValidKey(jobID) {
		return "", fmt.Errorf("service: invalid checkpoint job ID %q", jobID)
	}
	return filepath.Join(s.dir, "checkpoints", jobID+".json"), nil
}

// PutCheckpoint implements CheckpointStore through writeAtomic's temporary
// file and rename: a crash mid-write leaves the previous checkpoint intact,
// never a torn one.
func (s *FileStore) PutCheckpoint(cp Checkpoint) error {
	p, err := s.cpPath(cp.JobID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("service: encode checkpoint: %w", err)
	}
	return writeAtomic(p, "checkpoint", data)
}

// GetCheckpoint implements CheckpointStore. The file name is the job's ID: a
// body naming any other job is an error, since resume requeues the job the
// body names and retires the file of that ID when the job settles.
func (s *FileStore) GetCheckpoint(jobID string) (*Checkpoint, error) {
	p, err := s.cpPath(jobID)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("service: decode checkpoint %s: %w", jobID, err)
	}
	if cp.JobID != jobID {
		return nil, fmt.Errorf("service: checkpoint %s holds job %q", jobID, cp.JobID)
	}
	return &cp, nil
}

// ListCheckpoints implements CheckpointStore.
func (s *FileStore) ListCheckpoints() ([]string, error) {
	names, err := os.ReadDir(filepath.Join(s.dir, "checkpoints"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: list checkpoints: %w", err)
	}
	var out []string
	for _, de := range names {
		n := de.Name()
		if !strings.HasSuffix(n, ".json") {
			continue
		}
		if id := strings.TrimSuffix(n, ".json"); ValidKey(id) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

// DeleteCheckpoint implements CheckpointStore.
func (s *FileStore) DeleteCheckpoint(jobID string) error {
	p, err := s.cpPath(jobID)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: delete checkpoint: %w", err)
	}
	return nil
}

// checkpointer accumulates a session's paid executions (the runner.Cache
// fresh-run feed) and periodically persists them, so a killed process
// resumes the job without re-paying completed sample runs.
type checkpointer struct {
	store Store
	every int
	m     *serviceMetrics
	logf  progress.Logf

	mu    sync.Mutex
	cp    Checkpoint
	fresh int // entries appended since the last write

	// flushMu serializes flushes from snapshot to store write, so a
	// snapshot is never persisted over a later one (onRun flushes from the
	// batch pool's workers).
	flushMu sync.Mutex
}

// newCheckpointer starts checkpointing for j, seeding the entry list with
// whatever a resumed job already carries and persisting immediately — a
// crash before the first periodic write must still requeue the job on
// restart.
func newCheckpointer(store Store, j *job, every int, m *serviceMetrics, logf progress.Logf) *checkpointer {
	c := &checkpointer{
		store: store, every: every, m: m, logf: logf,
		cp: Checkpoint{JobID: j.id, Spec: j.spec, Fingerprint: j.fp.Key()},
	}
	if j.resume != nil {
		c.cp.Entries = append(c.cp.Entries, j.resume.Entries...)
	}
	c.flush()
	return c
}

// onRun receives one fresh (non-resumed) execution; every `every`-th entry
// triggers a persisted snapshot. Safe for concurrent use — batch pool
// workers complete runs concurrently.
func (c *checkpointer) onRun(e runner.TraceEntry) {
	c.mu.Lock()
	c.cp.Entries = append(c.cp.Entries, e)
	c.fresh++
	write := c.fresh >= c.every
	if write {
		c.fresh = 0
	}
	c.mu.Unlock()
	if write {
		c.flush()
	}
}

// flush persists a snapshot of the checkpoint, charging the write latency
// to the checkpoint histogram. Failures are logged, not fatal: losing a
// checkpoint costs re-execution after a crash, never the session itself.
func (c *checkpointer) flush() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	cp := c.cp
	cp.Entries = append([]runner.TraceEntry(nil), c.cp.Entries...)
	c.mu.Unlock()
	cp.CreatedUnix = time.Now().Unix()
	start := time.Now()
	err := c.store.PutCheckpoint(cp)
	c.m.checkpointWrite.Observe(time.Since(start).Seconds())
	if err != nil {
		progress.F(c.logf, "[%s] checkpoint write failed: %v", cp.JobID, err)
	}
}
