package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/runner"
)

// gatedMem is a MemStore whose history reads block until the gate opens: a
// worker that picked a job up parks inside its session (prior retrieval), so
// "running" lasts as long as the test needs. It holds one empty TPC-H entry
// from the start, near every spec these tests submit, so each retrieval has a
// shard to read and none has a prior to gain from it; the index, like
// FileStore's, is reconciled through heads, which is not gated.
type gatedMem struct {
	*MemStore
	gate chan struct{}
}

func newGatedMem() *gatedMem {
	g := &gatedMem{MemStore: NewMemStore(), gate: make(chan struct{})}
	if err := g.Put(Entry{Fingerprint: NewFingerprint(quickSpec(100, 1)), JobID: "gate", TargetGB: 100}); err != nil {
		panic(err)
	}
	return g
}

func (g *gatedMem) Get(key string) ([]Entry, error) {
	<-g.gate
	return g.MemStore.Get(key)
}

func (g *gatedMem) heads(key string) ([]Entry, []int, error) {
	entries, err := g.MemStore.Get(key)
	return entries, obsCounts(entries), err
}

// open lets every parked and later history read through (idempotent).
func (g *gatedMem) open() {
	select {
	case <-g.gate:
	default:
		close(g.gate)
	}
}

func jobOf(s *Service, id string) *job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jobs[id]
}

func inFlightOf(s *Service, tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLocked(tenant).inFlight
}

func doneClosed(j *job) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// waitFor polls cond (every millisecond, up to 30 s).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitState(t *testing.T, s *Service, id string, want State) {
	t.Helper()
	waitFor(t, fmt.Sprintf("job %s to be %s", id, want), func() bool {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		return st.State == want
	})
}

// waitRetried waits until the job's failed attempt has been requeued.
func waitRetried(t *testing.T, s *Service, id string) {
	t.Helper()
	waitFor(t, "the failed attempt to requeue", func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		j := s.jobs[id]
		return j.attempts == 1 && j.state == StateQueued
	})
}

// A job the user cancelled while it sat in the queue is gone for good: its
// checkpoint — left by an earlier drain, or by a failed attempt awaiting its
// retry — is retired with it, so a later Resume restart does not bring it
// back to life.
func TestCancelledQueuedJobIsNotResumed(t *testing.T) {
	noneLeft := func(t *testing.T, store *gatedMem) {
		t.Helper()
		if ids, _ := store.ListCheckpoints(); len(ids) != 0 {
			t.Fatalf("checkpoints after cancel and drain = %v; want none", ids)
		}
		s := New(Config{Workers: 1, Store: store, Resume: true})
		defer s.Close()
		if jobs := s.Jobs(); len(jobs) != 0 {
			t.Fatalf("restart resumed %d jobs; a cancelled job must stay cancelled", len(jobs))
		}
	}

	t.Run("ResumedFromDrain", func(t *testing.T) {
		store := newGatedMem()
		s1 := New(Config{Workers: 1, Store: store})
		s1.Hold()
		first, err := s1.Submit(quickSpec(100, 1))
		if err != nil {
			t.Fatal(err)
		}
		second, err := s1.Submit(quickSpec(110, 2))
		if err != nil {
			t.Fatal(err)
		}
		s1.Close() // both suspended, both checkpointed

		// The restart's single worker parks inside the first job, so the
		// second is still queued when the user cancels it.
		s2 := New(Config{Workers: 1, Store: store, Resume: true})
		waitState(t, s2, first, StateRunning)
		if err := s2.Cancel(second); err != nil {
			t.Fatal(err)
		}
		if cp, _ := store.GetCheckpoint(second); cp != nil {
			t.Fatal("cancelling a queued resumed job left its checkpoint behind")
		}
		if err := s2.Cancel(first); err != nil {
			t.Fatal(err)
		}
		store.open()
		s2.Close()
		noneLeft(t, store)
	})

	t.Run("RequeuedByRetry", func(t *testing.T) {
		store := newGatedMem()
		s := New(Config{Workers: 1, Store: store, JobRetries: 1, CheckpointEvery: 1,
			Chaos: &runner.ChaosOptions{KillAfter: 12, Seed: 5}})
		id, err := s.Submit(quickSpec(100, 1))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, StateRunning)
		s.Hold() // the retry stays queued
		store.open()
		waitRetried(t, s, id)
		if cp, _ := store.GetCheckpoint(id); cp == nil || len(cp.Entries) == 0 {
			t.Fatal("the failed attempt left no checkpoint for its retry")
		}
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if cp, _ := store.GetCheckpoint(id); cp != nil {
			t.Fatal("cancelling a queued retry left its checkpoint behind")
		}
		s.Close()
		noneLeft(t, store)
	})
}

// heldGet is a gatedMem whose checkpoint reads signal entered and then wait
// for release: a failed attempt's retry parks between its failure and its
// requeue, the one read it makes there.
type heldGet struct {
	*gatedMem
	entered, release chan struct{}
}

func (h *heldGet) GetCheckpoint(jobID string) (*Checkpoint, error) {
	h.entered <- struct{}{}
	<-h.release
	return h.gatedMem.GetCheckpoint(jobID)
}

// A cancel that lands after an attempt failed and before its retry is
// queued is not lost: the job settles, frees its tenant slot, and is neither
// left queued nor suspended by the drain for a restart to resume.
func TestCancelBetweenFailureAndRetrySettles(t *testing.T) {
	store := &heldGet{gatedMem: newGatedMem(), entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{Workers: 1, Store: store, JobRetries: 1, CheckpointEvery: 1,
		Chaos: &runner.ChaosOptions{KillAfter: 12, Seed: 5}})
	spec := quickSpec(100, 1)
	spec.Tenant = "retry"
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateRunning)
	store.open()
	select { // the attempt failed; its retry reads the checkpoint
	case <-store.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the failed attempt never asked for a retry")
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(store.release)
	j := jobOf(s, id)
	waitFor(t, "the cancelled job to settle", func() bool { return doneClosed(j) })
	if st, _ := s.Status(id); st.State != StateFailed {
		t.Fatalf("state = %s, want %s", st.State, StateFailed)
	}
	if got := inFlightOf(s, "retry"); got != 0 {
		t.Fatalf("tenant in-flight = %d after the job settled, want 0", got)
	}
	s.Close()
	if cp, _ := store.gatedMem.GetCheckpoint(id); cp != nil {
		t.Fatal("the settled job left its checkpoint for a restart to resume")
	}
}

// Cancelling a queued job frees its queue slot at once: the queue bound
// counts jobs that are actually waiting, not jobs a worker has yet to skip.
func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 2})
	defer s.Close()
	s.Hold()
	for i := 0; i < 2; i++ {
		id, err := s.Submit(quickSpec(100+float64(i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Queued != 0 || st.Cancelled != 2 {
		t.Fatalf("stats = %+v; want 0 queued, 2 cancelled", st)
	}
	if _, err := s.Submit(quickSpec(120, 3)); err != nil {
		t.Fatalf("batch submit into an empty queue refused: %v", err)
	}
	// One waiting job, one free slot: interactive work displaces nobody.
	inter := quickSpec(130, 4)
	inter.Priority = PriorityInteractive
	if _, err := s.Submit(inter); err != nil {
		t.Fatalf("interactive submit into a queue with a free slot refused: %v", err)
	}
	if st := s.Stats(); st.Shed != 0 || st.Queued != 2 {
		t.Fatalf("stats = %+v; want nobody shed, 2 queued", st)
	}
}

// Every legal edge of the job state machine, one row each. After the edge:
// done is closed exactly when the job is terminal (a second close would
// panic), the tenant's in-flight count is back to its pre-submit value for a
// terminal job, the checkpoint survives only where a restart is meant to
// find it, locat_job_seconds saw the job iff a worker ran it, and the Stats
// census agrees with the locat_jobs gauges.
func TestLifecycleEdges(t *testing.T) {
	const tenant = "edge"
	edgeSpec := func() JobSpec {
		spec := quickSpec(100, 1)
		spec.Tenant = tenant
		return spec
	}
	submit := func(t *testing.T, s *Service) string {
		t.Helper()
		id, err := s.Submit(edgeSpec())
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submitRunning := func(t *testing.T, s *Service) string {
		t.Helper()
		id := submit(t, s)
		waitState(t, s, id, StateRunning)
		return id
	}
	interactive := func() JobSpec {
		spec := quickSpec(120, 2)
		spec.Priority = PriorityInteractive
		return spec
	}
	kill := &runner.ChaosOptions{KillAfter: 12, Seed: 5}

	rows := []struct {
		name string
		cfg  Config
		// plant seeds the store before the service starts.
		plant func(t *testing.T, store *gatedMem)
		// drive takes the job along the edge and returns its ID.
		drive      func(t *testing.T, s *Service, store *gatedMem) string
		want       State
		ran        bool // a worker picked the job up before it settled
		checkpoint bool // a terminal job's checkpoint is still in the store
	}{
		{name: "queued→running",
			drive: func(t *testing.T, s *Service, _ *gatedMem) string {
				s.Hold()
				id := submit(t, s)
				s.Release()
				waitState(t, s, id, StateRunning)
				return id
			},
			want: StateRunning},
		{name: "queued→cancelled",
			drive: func(t *testing.T, s *Service, _ *gatedMem) string {
				s.Hold()
				id := submit(t, s)
				if err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
				return id
			},
			want: StateCancelled},
		{name: "queued→shed", cfg: Config{QueueCap: 1},
			drive: func(t *testing.T, s *Service, _ *gatedMem) string {
				s.Hold()
				id := submit(t, s)
				if _, err := s.Submit(interactive()); err != nil {
					t.Fatal(err)
				}
				return id
			},
			want: StateShed},
		{name: "queued→shed (resumed)", cfg: Config{QueueCap: 1, Resume: true},
			// The interactive resume displaces the batch one; shed means
			// deferred to the next restart, so the checkpoint stays.
			plant: func(t *testing.T, store *gatedMem) {
				for id, spec := range map[string]JobSpec{"job-000001": edgeSpec(), "job-000002": interactive()} {
					if err := store.PutCheckpoint(Checkpoint{JobID: id, Spec: spec}); err != nil {
						t.Fatal(err)
					}
				}
			},
			drive: func(t *testing.T, s *Service, _ *gatedMem) string {
				waitState(t, s, "job-000002", StateRunning) // census at rest
				return "job-000001"
			},
			want: StateShed, checkpoint: true},
		{name: "queued→suspended",
			drive: func(t *testing.T, s *Service, _ *gatedMem) string {
				s.Hold()
				id := submit(t, s)
				s.Close()
				return id
			},
			want: StateSuspended, checkpoint: true},
		{name: "running→succeeded",
			drive: func(t *testing.T, s *Service, store *gatedMem) string {
				id := submitRunning(t, s)
				store.open()
				return id
			},
			want: StateSucceeded, ran: true},
		{name: "running→failed", cfg: Config{Chaos: kill},
			drive: func(t *testing.T, s *Service, store *gatedMem) string {
				id := submitRunning(t, s)
				store.open()
				return id
			},
			want: StateFailed, ran: true},
		{name: "running→cancelled",
			drive: func(t *testing.T, s *Service, store *gatedMem) string {
				id := submitRunning(t, s)
				if err := s.Cancel(id); err != nil {
					t.Fatal(err)
				}
				store.open()
				return id
			},
			want: StateCancelled, ran: true},
		{name: "running→suspended",
			drive: func(t *testing.T, s *Service, store *gatedMem) string {
				id := submitRunning(t, s)
				go s.Close()
				waitFor(t, "the drain to begin", s.draining.Load)
				store.open()
				return id
			},
			want: StateSuspended, ran: true, checkpoint: true},
		{name: "running→queued (retry)", cfg: Config{Chaos: kill, JobRetries: 1},
			drive: func(t *testing.T, s *Service, store *gatedMem) string {
				id := submitRunning(t, s)
				s.Hold()
				store.open()
				waitRetried(t, s, id)
				return id
			},
			want: StateQueued},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			store := newGatedMem()
			if row.plant != nil {
				row.plant(t, store)
			}
			cfg := row.cfg
			cfg.Workers, cfg.Store, cfg.CheckpointEvery = 1, store, 1
			s := New(cfg)
			defer func() {
				store.open()
				s.Close()
			}()
			id := row.drive(t, s, store)
			j := jobOf(s, id)
			if row.want.Terminal() {
				waitFor(t, "the job to settle", func() bool { return doneClosed(j) })
			}

			st, err := s.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != row.want {
				t.Fatalf("state = %s (%s), want %s", st.State, st.Error, row.want)
			}
			if got := doneClosed(j); got != row.want.Terminal() {
				t.Fatalf("done closed = %v in state %s", got, row.want)
			}
			wantInFlight := 1
			if row.want.Terminal() {
				wantInFlight = 0
			}
			if got := inFlightOf(s, tenant); got != wantInFlight {
				t.Fatalf("tenant in-flight = %d in state %s, want %d", got, row.want, wantInFlight)
			}
			if row.want.Terminal() {
				cp, err := store.GetCheckpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				if (cp != nil) != row.checkpoint {
					t.Fatalf("checkpoint present = %v after %s, want %v", cp != nil, row.want, row.checkpoint)
				}
			}

			out := scrape(s)
			observed := 0.0
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "locat_job_seconds_count{") {
					observed += metricValue(out, f[0])
				}
			}
			wantObserved := 0.0
			if row.ran {
				wantObserved = 1
				if v := metricValue(out, `locat_job_seconds_count{state="`+string(row.want)+`"}`); v != 1 {
					t.Fatalf("locat_job_seconds{state=%q} count = %v, want 1", row.want, v)
				}
			}
			if observed != wantObserved {
				t.Fatalf("locat_job_seconds observed %v jobs, want %v\n%s", observed, wantObserved, out)
			}
			census := s.Stats()
			for state, n := range map[State]int{
				StateQueued: census.Queued, StateRunning: census.Running,
				StateSucceeded: census.Succeeded, StateFailed: census.Failed,
				StateCancelled: census.Cancelled, StateShed: census.Shed,
				StateSuspended: census.Suspended,
			} {
				if v := metricValue(out, `locat_jobs{state="`+string(state)+`"}`); v != float64(n) {
					t.Fatalf("locat_jobs{state=%q} = %v, census says %d (%+v)", state, v, n, census)
				}
				if state == row.want && n < 1 {
					t.Fatalf("census %+v does not count the job as %s", census, row.want)
				}
			}
		})
	}
}

// heldDelete is a gatedMem whose checkpoint deletes block until a timer,
// armed by the first delete, releases them all.
type heldDelete struct {
	*gatedMem
	hold    time.Duration
	once    sync.Once
	release chan struct{}
	held    atomic.Bool // a delete has begun and not yet removed the checkpoint
}

func newHeldDelete(hold time.Duration) *heldDelete {
	return &heldDelete{gatedMem: newGatedMem(), hold: hold, release: make(chan struct{})}
}

func (h *heldDelete) DeleteCheckpoint(jobID string) error {
	h.held.Store(true)
	h.once.Do(func() { time.AfterFunc(h.hold, func() { close(h.release) }) })
	<-h.release
	err := h.gatedMem.DeleteCheckpoint(jobID)
	h.held.Store(false)
	return err
}

// A state that reads terminal is final: the checkpoint is already retired
// and locat_job_seconds has already counted the job, so a client polling
// GET /v1/jobs/{id} never sees a terminal job with either still pending.
// The delete is held for a while on a timer; neither Status nor the HTTP
// route may report the job terminal until it is through.
func TestLifecycleTerminalMeansRetired(t *testing.T) {
	const hold = 150 * time.Millisecond
	// firstTerminal polls Status and the HTTP route in turn until one reads
	// a terminal state, failing if it does so while the delete is held.
	firstTerminal := func(t *testing.T, s *Service, store *heldDelete, id string) State {
		t.Helper()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		reads := []func() State{
			func() State {
				st, err := s.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				return st.State
			},
			func() State {
				var st JobStatus
				if err := json.Unmarshal(getBody(t, srv.URL+"/v1/jobs/"+id), &st); err != nil {
					t.Fatal(err)
				}
				return st.State
			},
		}
		var got State
		waitFor(t, "a terminal state", func() bool {
			for _, read := range reads {
				if got = read(); got.Terminal() {
					return true
				}
			}
			return false
		})
		if store.held.Load() {
			t.Fatalf("job reads %s while its checkpoint delete is held", got)
		}
		if cp, err := store.GetCheckpoint(id); err != nil || cp != nil {
			t.Fatalf("job reads %s with its checkpoint still stored (%v)", got, err)
		}
		return got
	}

	t.Run("FinishedByWorker", func(t *testing.T) {
		store := newHeldDelete(hold)
		store.open()
		s := New(Config{Workers: 1, Store: store, CheckpointEvery: 1})
		defer s.Close()
		id, err := s.Submit(quickSpec(100, 1))
		if err != nil {
			t.Fatal(err)
		}
		if st := firstTerminal(t, s, store, id); st != StateSucceeded {
			t.Fatalf("state = %s, want %s", st, StateSucceeded)
		}
		if v := metricValue(scrape(s), `locat_job_seconds_count{state="succeeded"}`); v != 1 {
			t.Fatalf(`locat_job_seconds_count{state="succeeded"} = %v at the first terminal read, want 1`, v)
		}
	})

	t.Run("ResumedQueuedCancelled", func(t *testing.T) {
		store := newHeldDelete(hold)
		for id, gb := range map[string]float64{"job-000001": 100, "job-000002": 110} {
			if err := store.PutCheckpoint(Checkpoint{JobID: id, Spec: quickSpec(gb, 1)}); err != nil {
				t.Fatal(err)
			}
		}
		// The single worker parks inside job-000001, so job-000002 stays
		// queued until it is cancelled.
		s := New(Config{Workers: 1, Store: store, CheckpointEvery: 1, Resume: true})
		defer func() {
			store.open()
			s.Close()
		}()
		waitState(t, s, "job-000001", StateRunning)
		cancelled := make(chan error, 1)
		go func() { cancelled <- s.Cancel("job-000002") }()
		// The delete runs outside the service mutex: the census and another
		// job's status answer while it is held.
		waitFor(t, "the cancelled job's checkpoint delete", store.held.Load)
		start := time.Now()
		s.Stats()
		if _, err := s.Status("job-000001"); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("Stats and Status of another job took %v while a cancel's checkpoint delete was held", d)
		}
		if !store.held.Load() {
			t.Fatal("the delete ended before the reads did; the hold is too short to tell")
		}
		if err := s.Cancel("job-000002"); err != nil {
			t.Fatal(err)
		}
		// Close drains the queue while the delete is still held: the job is
		// out of its lane, so the drain neither suspends nor settles it.
		go s.Close()
		waitFor(t, "Close's drain", func() bool {
			s.disp.mu.Lock()
			defer s.disp.mu.Unlock()
			return s.disp.closed
		})
		if !store.held.Load() {
			t.Fatal("the delete ended before Close drained; the hold is too short to tell")
		}
		if st := firstTerminal(t, s, store, "job-000002"); st != StateCancelled {
			t.Fatalf("state = %s, want %s", st, StateCancelled)
		}
		if err := <-cancelled; err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel("job-000001"); err != nil {
			t.Fatal(err)
		}
	})
}
