package service

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/runner"
)

// metricValue extracts a series value from a Prometheus text exposition
// (-1 when the series is absent).
func metricValue(exposition, series string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == series {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

func scrape(s *Service) string {
	var b strings.Builder
	s.cfg.Metrics.WritePrometheus(&b)
	return b.String()
}

// A chaos schedule whose drop ceiling stays under the retry budget must be
// invisible in the result: every injected fault heals, so the tuned
// configuration is bit-identical to the fault-free session's.
func TestChaosHealingJobMatchesFaultFree(t *testing.T) {
	spec := quickSpec(80, 4)

	clean := New(Config{Workers: 1})
	cleanRes, err := submitAndWait(t, clean, spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	chaotic := New(Config{Workers: 1, Chaos: &runner.ChaosOptions{DropRate: 0.25, MaxConsecutive: 2, Seed: 7}})
	defer chaotic.Close()
	res, err := submitAndWait(t, chaotic, spec)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.BestConfig, cleanRes.BestConfig) || res.TunedSec != cleanRes.TunedSec {
		t.Fatalf("chaotic session diverged from fault-free:\n chaos: %v (%.3f s)\n clean: %v (%.3f s)",
			res.BestConfig, res.TunedSec, cleanRes.BestConfig, cleanRes.TunedSec)
	}
	if res.Degraded != "" || res.FellBack {
		t.Fatalf("healed session flagged degraded=%q fellback=%v", res.Degraded, res.FellBack)
	}

	// The fault-tolerance series are on the exposition: retries were paid,
	// no breaker is open, checkpoints were written.
	out := scrape(chaotic)
	if v := metricValue(out, "locat_run_retries_total"); v <= 0 {
		t.Fatalf("locat_run_retries_total = %v; want > 0 under drop injection\n%s", v, out)
	}
	if v := metricValue(out, "locat_breaker_open"); v != 0 {
		t.Fatalf("locat_breaker_open = %v; want 0 after the session", v)
	}
	if v := metricValue(out, "locat_jobs_resumed_total"); v != 0 {
		t.Fatalf("locat_jobs_resumed_total = %v; want 0 (nothing resumed)", v)
	}
	if v := metricValue(out, "locat_checkpoint_write_seconds_count"); v <= 0 {
		t.Fatalf("locat_checkpoint_write_seconds_count = %v; want > 0", v)
	}
}

// A backend that dies mid-session degrades the job instead of failing it:
// the result is the best configuration measured before death, flagged, and
// never worse than the defaults.
func TestBackendDeathDegradesJob(t *testing.T) {
	s := New(Config{Workers: 1, Chaos: &runner.ChaosOptions{FailAfter: 12, Seed: 3}})
	defer s.Close()
	res, err := submitAndWait(t, s, quickSpec(80, 4))
	if err != nil {
		t.Fatalf("mid-session backend death failed the job: %v", err)
	}
	if !strings.Contains(res.Degraded, "chaos") {
		t.Fatalf("Degraded = %q; want the injected failure cause", res.Degraded)
	}
	if res.TunedSec > res.DefaultSec {
		t.Fatalf("degraded recommendation (%.3f s) worse than default (%.3f s)", res.TunedSec, res.DefaultSec)
	}
	if v := metricValue(scrape(s), "locat_breaker_open"); v != 0 {
		t.Fatalf("locat_breaker_open = %v after the session; want 0", v)
	}
}

// captureStore snapshots every checkpoint write, so the test can replant a
// mid-session checkpoint into a fresh store — the state a process death
// leaves behind (the worker never reached a terminal state, so nothing
// deleted the checkpoint).
type captureStore struct {
	*MemStore
	mu   sync.Mutex
	cps  []Checkpoint
	last *Checkpoint
}

func (c *captureStore) PutCheckpoint(cp Checkpoint) error {
	c.mu.Lock()
	snap := cp
	snap.Entries = append([]runner.TraceEntry(nil), cp.Entries...)
	c.cps = append(c.cps, snap)
	c.last = &snap
	c.mu.Unlock()
	return c.MemStore.PutCheckpoint(cp)
}

// liveGateway stands in for a spark-submit/REST gateway, counting the
// submissions it receives in posts. Latencies vary with the configuration so
// the surrogate has something to fit, and repeat exactly for a repeated
// configuration, as the resume tests need: the tuner is deterministic given
// its seed and the results it observes.
func liveGateway(posts *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		var sub struct {
			Queries         []string          `json:"queries"`
			SparkProperties map[string]string `json:"spark_properties"`
		}
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		names := make([]string, 0, len(sub.SparkProperties))
		for name := range sub.SparkProperties {
			names = append(names, name)
		}
		sort.Strings(names)
		h := fnv.New32a()
		for _, name := range names {
			h.Write([]byte(name + "=" + sub.SparkProperties[name]))
		}
		base := int64(1000 + h.Sum32()%2000)
		var total int64
		qs := make([]map[string]any, 0, len(sub.Queries))
		for i, name := range sub.Queries {
			ms := base + int64(37*i)
			total += ms
			qs = append(qs, map[string]any{"name": name, "duration_ms": ms})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"app_id": "app-1", "duration_ms": total, "queries": qs})
	})
}

// uninterrupted runs spec to the end on a service that checkpoints after
// every run, returning the result and the last checkpoint written — the one
// a process death just before the job settled would leave behind.
func uninterrupted(t *testing.T, spec JobSpec) (*JobResult, Checkpoint) {
	t.Helper()
	cap1 := &captureStore{MemStore: NewMemStore()}
	s1 := New(Config{Workers: 1, Store: cap1, CheckpointEvery: 1})
	baseline, err := submitAndWait(t, s1, spec)
	s1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cap1.last == nil || len(cap1.last.Entries) == 0 {
		t.Fatal("no checkpoint captured during the session")
	}
	// The finished job retired its checkpoint from the real store.
	if cp, _ := cap1.GetCheckpoint(cap1.last.JobID); cp != nil {
		t.Fatal("terminal job left its checkpoint behind")
	}
	return baseline, *cap1.last
}

// resumeFrom plants cp in a fresh store and returns the result of the job a
// service started with Resume over it requeues.
func resumeFrom(t *testing.T, cp Checkpoint) (*Service, *MemStore, *JobResult) {
	t.Helper()
	ms := NewMemStore()
	if err := ms.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: ms, Resume: true, CheckpointEvery: 1})
	t.Cleanup(s.Close)
	res, err := s.Result(cp.JobID)
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	return s, ms, res
}

// sameOutcome fails t unless the resumed session landed on the uninterrupted
// one's configuration and tuned time.
func sameOutcome(t *testing.T, res, baseline *JobResult) {
	t.Helper()
	if !reflect.DeepEqual(res.BestConfig, baseline.BestConfig) || res.TunedSec != baseline.TunedSec {
		t.Fatalf("resumed session diverged from the uninterrupted one:\n resumed: %v (%.3f s)\n baseline: %v (%.3f s)",
			res.BestConfig, res.TunedSec, baseline.BestConfig, baseline.TunedSec)
	}
}

// Kill-and-restart: a service started with Resume over a store holding a
// checkpoint requeues the interrupted job under its original ID, serves the
// paid runs from the checkpoint, and lands on the identical tuned
// configuration. With the final checkpoint planted, zero runs re-execute —
// on the simulator and on a live gateway alike, which then receives no
// submission at all.
func TestResumeFromCheckpointAfterKill(t *testing.T) {
	var posts atomic.Int64
	gw := httptest.NewServer(liveGateway(&posts))
	defer gw.Close()
	type backend struct {
		name     string
		spec     JobSpec
		baseline *JobResult
		last     Checkpoint
	}
	live := quickSpec(80, 4)
	live.Backend = "sparkrest=" + gw.URL
	backends := []*backend{{name: "sim", spec: quickSpec(80, 4)}, {name: "sparkrest", spec: live}}
	for _, b := range backends {
		b.baseline, b.last = uninterrupted(t, b.spec)
	}

	// check resumes from planted and returns the result and the number of
	// gateway submissions the resumed job made.
	check := func(t *testing.T, b *backend, planted Checkpoint) (*JobResult, int64) {
		t.Helper()
		before := posts.Load()
		s2, ms, res := resumeFrom(t, planted)
		submitted := posts.Load() - before
		sameOutcome(t, res, b.baseline)
		// Conservation: every execution the uninterrupted session paid is
		// either served from the checkpoint or re-executed, never both.
		if res.Runs+res.ResumedRuns != b.baseline.Runs {
			t.Fatalf("runs not conserved: fresh %d + resumed %d != baseline %d",
				res.Runs, res.ResumedRuns, b.baseline.Runs)
		}
		if v := metricValue(scrape(s2), "locat_jobs_resumed_total"); v != 1 {
			t.Fatalf("locat_jobs_resumed_total = %v; want 1", v)
		}
		// The finished resume retired the checkpoint.
		if cp, _ := ms.GetCheckpoint(planted.JobID); cp != nil {
			t.Fatal("resumed job left its checkpoint behind")
		}
		// Fresh submissions never collide with the resumed ID.
		id, err := s2.Submit(b.spec)
		if err != nil {
			t.Fatal(err)
		}
		if id == planted.JobID {
			t.Fatalf("fresh submission reused resumed job ID %s", id)
		}
		if _, err := s2.Result(id); err != nil {
			t.Fatal(err)
		}
		return res, submitted
	}

	t.Run("FinalCheckpoint", func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				res, submitted := check(t, b, b.last)
				// Everything was paid before the "kill": nothing re-executes.
				if res.Runs != 0 || submitted != 0 {
					t.Fatalf("resume re-executed %d runs in %d gateway submissions; want 0", res.Runs, submitted)
				}
				if res.ResumedRuns != b.baseline.Runs {
					t.Fatalf("ResumedRuns = %d; want %d", res.ResumedRuns, b.baseline.Runs)
				}
			})
		}
	})
	t.Run("MidSessionCheckpoint", func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				mid := b.last
				mid.Entries = append([]runner.TraceEntry(nil), mid.Entries[:len(mid.Entries)/2]...)
				res, _ := check(t, b, mid)
				if res.ResumedRuns == 0 || res.Runs == 0 {
					t.Fatalf("partial resume should mix served (%d) and fresh (%d) runs",
						res.ResumedRuns, res.Runs)
				}
			})
		}
	})
}

// A checkpoint is a file: one of its entries may hold a configuration that is
// not of the space's dimension (written under another parameter table, or
// damaged). Such an entry matches no run the session asks for, so resume
// re-executes that one run and serves the rest; it never breaks the job.
func TestResumeSkipsCheckpointEntryOfWrongDimension(t *testing.T) {
	var posts atomic.Int64
	gw := httptest.NewServer(liveGateway(&posts))
	defer gw.Close()
	spec := quickSpec(80, 4)
	spec.Backend = "sparkrest=" + gw.URL
	baseline, cp := uninterrupted(t, spec)

	cp.Entries = slices.Clone(cp.Entries)
	cut := slices.IndexFunc(cp.Entries, func(e runner.TraceEntry) bool { return e.Kind == runner.TraceApp })
	if cut < 0 {
		t.Fatal("checkpoint holds no application run")
	}
	cp.Entries[cut].Conf = cp.Entries[cut].Conf[:9]
	_, _, res := resumeFrom(t, cp)
	sameOutcome(t, res, baseline)
	if res.Runs != 1 || res.ResumedRuns != baseline.Runs-1 {
		t.Fatalf("resume re-executed %d runs and served %d; want 1 and %d",
			res.Runs, res.ResumedRuns, baseline.Runs-1)
	}
}

// Resume trusts a checkpoint's file name over its body. A body whose job_id
// is empty, names another job or repeats another file's ID is unreadable: it
// is skipped and left where it is, and only the honest checkpoint resumes,
// once, under its own ID.
func TestResumeSkipsCheckpointNamingAnotherJob(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutCheckpoint(Checkpoint{JobID: "job-000001", Spec: quickSpec(100, 1)}); err != nil {
		t.Fatal(err)
	}
	for file, body := range map[string]string{"job-000002": "job-000001", "job-000003": "", "job-000004": "job-000009"} {
		data, err := json.Marshal(Checkpoint{JobID: body, Spec: quickSpec(100, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoints", file+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if cp, err := fs.GetCheckpoint(file); err == nil {
			t.Errorf("GetCheckpoint(%s) returned a checkpoint of job %q", file, cp.JobID)
		}
	}
	s := New(Config{Workers: 1, Store: fs, Resume: true})
	defer s.Close()
	var ids []string
	for _, st := range s.Jobs() {
		ids = append(ids, st.ID)
	}
	if !slices.Equal(ids, []string{"job-000001"}) {
		t.Fatalf("resumed jobs %q; want only job-000001", ids)
	}
	if v := metricValue(scrape(s), "locat_jobs_resumed_total"); v != 1 {
		t.Fatalf("locat_jobs_resumed_total = %v; want 1", v)
	}
	for _, file := range []string{"job-000002", "job-000003", "job-000004"} {
		if _, err := os.Stat(filepath.Join(dir, "checkpoints", file+".json")); err != nil {
			t.Fatalf("unreadable checkpoint %s did not stay: %v", file, err)
		}
	}
}

// TestResumedFallbackJobKeepsItsPrior: a fallback job queued by /v1/recommend
// and drained before it ran warm-starts after the restart exactly as it would
// have before it — the prior is read when the job runs, so nothing has to
// survive in the checkpoint.
func TestResumedFallbackJobKeepsItsPrior(t *testing.T) {
	store := NewMemStore()
	s1 := New(Config{Workers: 1, Store: store})
	seedHistory(t, s1, []float64{100})
	s1.Hold()
	// Two buckets above the only stored session: one distant neighbor is low
	// confidence, so the request falls back to a tuning job.
	rec, err := s1.Recommend(RecommendRequest{JobSpec: quickSpec(400, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "fallback" || rec.RefineJobID == "" {
		t.Fatalf("recommendation = %+v; want a queued fallback job", rec)
	}
	s1.Close()
	if st, _ := s1.Status(rec.RefineJobID); st.State != StateSuspended {
		t.Fatalf("drained fallback job is %s; want suspended", st.State)
	}

	s2 := New(Config{Workers: 1, Store: store, Resume: true})
	defer s2.Close()
	res, err := s2.Result(rec.RefineJobID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted || res.PriorObsUsed == 0 || len(res.SeededFrom) == 0 {
		t.Fatalf("resumed fallback job: warm=%v, %d prior obs, seeded from %+v; want the stored session's prior",
			res.WarmStarted, res.PriorObsUsed, res.SeededFrom)
	}
}

// Kill injection plus bounded job retries: each attempt pays a few more
// runs before the injected crash, the checkpoint accumulates them, and a
// later attempt completes — with the same result as a crash-free session.
func TestJobRetryResumesAcrossAttempts(t *testing.T) {
	spec := quickSpec(70, 6)

	clean := New(Config{Workers: 1})
	baseline, err := submitAndWait(t, clean, spec)
	clean.Close()
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		Workers:         1,
		JobRetries:      8,
		CheckpointEvery: 1,
		Chaos:           &runner.ChaosOptions{KillAfter: 12, Seed: 5},
	})
	defer s.Close()
	res, err := submitAndWait(t, s, spec)
	if err != nil {
		t.Fatalf("job did not survive kill injection within the retry budget: %v", err)
	}
	if !reflect.DeepEqual(res.BestConfig, baseline.BestConfig) || res.TunedSec != baseline.TunedSec {
		t.Fatalf("retried session diverged from crash-free baseline:\n retried: %v (%.3f s)\n baseline: %v (%.3f s)",
			res.BestConfig, res.TunedSec, baseline.BestConfig, baseline.TunedSec)
	}
	// The successful attempt resumed paid work from earlier attempts and
	// never re-paid it.
	if res.ResumedRuns == 0 {
		t.Fatal("successful attempt served nothing from the checkpoint; retries did not resume")
	}
	if res.Runs+res.ResumedRuns != baseline.Runs {
		t.Fatalf("runs not conserved across attempts: fresh %d + resumed %d != baseline %d",
			res.Runs, res.ResumedRuns, baseline.Runs)
	}
}

// Admission control: a full queue refuses submissions with ErrQueueFull
// (429 over HTTP) without burning job IDs; a closed service answers
// ErrClosed (503).
func TestQueueFullAdmissionControl(t *testing.T) {
	// The gated store pins the single worker inside its session, so the
	// queue state is deterministic.
	store := newGatedMem()
	s := New(Config{Workers: 1, QueueCap: 1, Store: store})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id1, err := s.Submit(quickSpec(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick job 1 up (it then parks on the gated
	// history read), then fill the queue buffer.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	id2, err := s.Submit(quickSpec(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(quickSpec(60, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v; want ErrQueueFull", err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"TPC-H","data_size_gb":60}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit = %d; want 429", resp.StatusCode)
	}

	store.open() // release the worker; the backlog drains
	for _, id := range []string{id1, id2} {
		if _, err := s.Result(id); err != nil {
			t.Fatal(err)
		}
	}
	// The refused submission did not burn an ID: the next accepted job is 3.
	id4, err := s.Submit(quickSpec(60, 4))
	if err != nil {
		t.Fatal(err)
	}
	if id4 != "job-000003" {
		t.Fatalf("post-refusal submission got %s; want job-000003", id4)
	}
	if _, err := s.Result(id4); err != nil {
		t.Fatal(err)
	}

	s.Close()
	if _, err := s.Submit(quickSpec(60, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed-service submission error = %v; want ErrClosed", err)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"TPC-H","data_size_gb":60}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed-service submit = %d; want 503", resp.StatusCode)
	}
}

// submitAndWait runs one job to completion.
func submitAndWait(t *testing.T, s *Service, spec JobSpec) (*JobResult, error) {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s.Result(id)
}
