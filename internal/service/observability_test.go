package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"locat/internal/obs"
	"locat/internal/runner"
)

// TestStatsBreakdownAndTally drives one job into each terminal state and
// checks the census breakdown, the job-state gauges on the exposition, and
// the execution tally attached to the successful result.
func TestStatsBreakdownAndTally(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	okID, err := s.Submit(quickSpec(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A replay backend pointing at a missing trace passes spec validation
	// (the file is only opened when the session starts) and then fails.
	badSpec := quickSpec(60, 2)
	badSpec.Backend = "replay=/nonexistent/trace.jsonl"
	badID, err := s.Submit(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Queued behind the two jobs of the single worker: cancelled before it
	// can start.
	cancelID, err := s.Submit(quickSpec(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(cancelID); err != nil {
		t.Fatal(err)
	}

	res, err := s.Result(okID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs <= 0 || res.ClusterSec <= 0 {
		t.Fatalf("successful result carries no tally: runs=%d cluster_sec=%v", res.Runs, res.ClusterSec)
	}
	// The tally sees every execution, so it covers at least the session's
	// reported tuning overhead.
	if res.ClusterSec < res.OverheadSec-1e-6 {
		t.Fatalf("tally %.1f s below reported overhead %.1f s", res.ClusterSec, res.OverheadSec)
	}
	if _, err := s.Result(badID); err == nil {
		t.Fatal("missing-trace job did not fail")
	}
	if _, err := s.Result(cancelID); err == nil {
		t.Fatal("cancelled job returned a result")
	}

	st := s.Stats()
	want := Stats{Succeeded: 1, Failed: 1, Cancelled: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.Finished() != 3 {
		t.Fatalf("finished = %d, want 3", st.Finished())
	}

	var b strings.Builder
	s.cfg.Metrics.WritePrometheus(&b)
	out := b.String()
	for _, wantLine := range []string{
		`locat_jobs{state="succeeded"} 1`,
		`locat_jobs{state="failed"} 1`,
		`locat_jobs{state="cancelled"} 1`,
		`locat_jobs{state="queued"} 0`,
		`locat_runs_total{kind="app"}`,
	} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("exposition missing %q:\n%s", wantLine, out)
		}
	}
}

// TestRunsTotalMatchesJobRuns: every execution a job pays is charged to
// locat_runs_total under exactly one kind. The split follows the outermost
// layer: with checkpointing on, Cache sits on top of Observed and the
// phase-1 batch is charged run by run as "app"; with it off, Observed is
// outermost and takes the batch whole, as "batch".
func TestRunsTotalMatchesJobRuns(t *testing.T) {
	for _, every := range []int{0, -1} {
		reg := obs.NewRegistry()
		s := New(Config{Workers: 1, Metrics: reg, CheckpointEvery: every})
		id, err := s.Submit(quickSpec(60, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Result(id)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		runs := func(kind string) int64 {
			return int64(reg.Counter("locat_runs_total", "", "kind", kind).Value())
		}
		app, batch := runs(runner.KindApp), runs(runner.KindBatch)
		if app+batch != res.Runs || res.Runs == 0 {
			t.Fatalf("CheckpointEvery=%d: locat_runs_total app %d + batch %d, JobResult.Runs %d", every, app, batch, res.Runs)
		}
		if checkpointing := every >= 0; checkpointing != (batch == 0) {
			t.Fatalf("CheckpointEvery=%d: %d runs labelled batch", every, batch)
		}
	}
}

// TestMetricsEndpointConcurrent scrapes /metrics while jobs submit and run;
// meaningful under -race, which CI runs for this package.
func TestMetricsEndpointConcurrent(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape = %d", resp.StatusCode)
					return
				}
				if !strings.Contains(string(body), "# TYPE locat_jobs gauge") {
					t.Errorf("malformed exposition:\n%s", body)
					return
				}
			}
		}()
	}

	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := svc.Submit(quickSpec(50+float64(i), int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := svc.Result(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The run counters saw the drained jobs; the HTTP middleware saw the
	// scrapes, labeled by route pattern.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`locat_runs_total{kind="app"}`,
		`locat_http_requests_total{code="200",route="GET /metrics"}`,
		"locat_job_queue_wait_seconds_count 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestTraceEndpoint checks the per-job span timeline over HTTP.
func TestTraceEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	id, err := svc.Submit(quickSpec(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		ID    string           `json:"id"`
		State State            `json:"state"`
		Spans []obs.SpanRecord `json:"spans"`
	}
	doJSON(t, client, "GET", srv.URL+"/v1/jobs/"+id+"/trace", nil, http.StatusOK, &trace)
	if trace.ID != id || trace.State != StateSucceeded {
		t.Fatalf("trace header wrong: %+v", trace)
	}
	if len(trace.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byName := map[string]obs.SpanRecord{}
	var runs int64
	for _, sp := range trace.Spans {
		if !sp.Done {
			t.Fatalf("span %q still open after job finished", sp.Name)
		}
		byName[sp.Name] = sp
		runs += sp.Runs
	}
	for _, want := range []string{"phase1/sampling", "qcsa/reduce", "iicp/select", "phase2/search", "final/select"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("timeline missing span %q: %+v", want, trace.Spans)
		}
	}
	if runs <= 0 {
		t.Fatal("no runs charged to any span")
	}
	if sp := byName["phase1/sampling"]; sp.ClusterSec <= 0 || sp.Runs <= 0 {
		t.Fatalf("sampling span empty: %+v", sp)
	}

	// Unknown job is a 404; a queued/unstarted job would serve an empty
	// span list rather than erroring (not exercised here: the single worker
	// already drained the queue).
	resp, err := client.Get(srv.URL + "/v1/jobs/job-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestHealthzBreakdown checks the extended health payload.
func TestHealthzBreakdown(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	id, err := svc.Submit(quickSpec(60, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["succeeded"] != float64(1) ||
		health["failed"] != float64(0) || health["finished"] != float64(1) {
		t.Fatalf("health = %v", health)
	}
}
