package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"locat/internal/conf"
	"locat/internal/runner"
	"locat/internal/sparksim"
)

// finishedJob plants a succeeded job holding res in the service, as if a
// session had just produced it, so the result endpoints can be read for a
// result the test controls field by field.
func finishedJob(t *testing.T, s *Service, id string, res *JobResult) {
	t.Helper()
	spec := JobSpec{Benchmark: "TPC-H"}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	done := make(chan struct{})
	close(done)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = &job{
		id: id, spec: spec, fp: NewFingerprint(spec), state: StateSucceeded, result: res,
		submitted: at, started: at.Add(time.Second), finished: at.Add(time.Minute), done: done,
	}
	s.order = append(s.order, id)
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// fullJobResult sets every JobResult field to a value its zero would not
// encode as.
func fullJobResult() *JobResult {
	return &JobResult{
		BestConfig:       conf.Config{1, 2.5, 0, 4096},
		BestParams:       map[string]float64{"spark.executor.cores": 4, "spark.executor.memory": 4096},
		TunedSec:         123.5,
		DefaultSec:       987.25,
		OverheadSec:      5000,
		SamplingSec:      3200,
		SearchSec:        1800,
		FullRuns:         10,
		RQARuns:          18,
		WarmStarted:      true,
		PriorObsUsed:     48,
		SensitiveQueries: []string{"q3", "q9"},
		ImportantParams:  []string{"spark.executor.cores", "spark.sql.shuffle.partitions"},
		SparkConf:        "spark.executor.cores 4\nspark.executor.memory 4096m\n",
		Runs:             28,
		ClusterSec:       5000.5,
		ResumedRuns:      7,
		Degraded:         "core: deadline exceeded",
		FellBack:         true,
		SeededFrom: []Neighbor{{
			JobID: "job-000001", Key: "arm_TPC-H_b7_qid", Distance: 0.125, Weight: 0.75,
			TunedSec: 130, TargetGB: 100, Obs: 18,
		}},
	}
}

// wireFull and wireMinimal are the bodies GET /v1/jobs/{id}/result returned
// for fullJobResult() and for a zero JobResult before apiResult embedded
// JobResult instead of repeating its fields. The shape is a contract with
// clients: byte for byte.
const wireFull = `{
 "schema": 1,
 "best_config": [
  1,
  2.5,
  0,
  4096
 ],
 "best_params": {
  "spark.executor.cores": 4,
  "spark.executor.memory": 4096
 },
 "tuned_sec": 123.5,
 "default_sec": 987.25,
 "overhead_sec": 5000,
 "sampling_sec": 3200,
 "search_sec": 1800,
 "full_runs": 10,
 "rqa_runs": 18,
 "warm_started": true,
 "prior_obs_used": 48,
 "sensitive_queries": [
  "q3",
  "q9"
 ],
 "important_params": [
  "spark.executor.cores",
  "spark.sql.shuffle.partitions"
 ],
 "spark_conf": "spark.executor.cores 4\nspark.executor.memory 4096m\n",
 "runs": 28,
 "cluster_sec": 5000.5,
 "resumed_runs": 7,
 "degraded": "core: deadline exceeded",
 "fell_back": true,
 "seeded_from": [
  {
   "job_id": "job-000001",
   "key": "arm_TPC-H_b7_qid",
   "distance": 0.125,
   "weight": 0.75,
   "tuned_sec": 130,
   "target_gb": 100,
   "obs": 18
  }
 ]
}
`

const wireMinimal = `{
 "schema": 1,
 "best_config": null,
 "best_params": null,
 "tuned_sec": 0,
 "default_sec": 0,
 "overhead_sec": 0,
 "sampling_sec": 0,
 "search_sec": 0,
 "full_runs": 0,
 "rqa_runs": 0,
 "warm_started": false,
 "prior_obs_used": 0,
 "spark_conf": "",
 "runs": 0,
 "cluster_sec": 0
}
`

// TestResultWireShape pins the two result endpoints: /result byte for byte,
// and the result embedded in the status document key for key.
func TestResultWireShape(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	finishedJob(t, s, "job-000001", fullJobResult())
	finishedJob(t, s, "job-000002", &JobResult{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for id, want := range map[string]string{"job-000001": wireFull, "job-000002": wireMinimal} {
		got := getBody(t, srv.URL+"/v1/jobs/"+id+"/result")
		if string(got) != want {
			t.Errorf("GET /v1/jobs/%s/result =\n%s\nwant\n%s", id, got, want)
		}

		// The status document embeds the same result under "result": every
		// key of the result endpoint but the schema version, same values.
		var result map[string]json.RawMessage
		if err := json.Unmarshal(got, &result); err != nil {
			t.Fatal(err)
		}
		var status struct {
			Result map[string]json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(getBody(t, srv.URL+"/v1/jobs/"+id), &status); err != nil {
			t.Fatal(err)
		}
		if string(result["schema"]) != "1" {
			t.Errorf("%s: schema = %s, want 1", id, result["schema"])
		}
		delete(result, "schema")
		if !reflect.DeepEqual(keysOf(result), keysOf(status.Result)) {
			t.Errorf("%s: /result carries %v, the status document's result %v", id, keysOf(result), keysOf(status.Result))
		}
		for k, v := range result {
			var a, b any
			if json.Unmarshal(v, &a) != nil || json.Unmarshal(status.Result[k], &b) != nil || !reflect.DeepEqual(a, b) {
				t.Errorf("%s: %q is %s on /result and %s in the status document", id, k, v, status.Result[k])
			}
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSettledResultServedWhole: a settled job keeps its result without
// BestParams and SparkConf, and every way the result leaves the service puts
// them back — the bodies of GET /v1/jobs/{id}, /result and /conf are, byte for
// byte, those of a job that holds the result whole.
func TestSettledResultServedWhole(t *testing.T) {
	spec := quickSpec(100, 1)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	full, _, err := RunSession(runner.NewSim(sparksim.New(sparksim.ARM(), spec.Seed)), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	full.Runs, full.ClusterSec = 18, full.OverheadSec
	full.SeededFrom = []Neighbor{{JobID: "job-000009", Key: "k", Distance: 0.25, Weight: 1, TunedSec: 600, TargetGB: 100, Obs: 18}}
	if len(full.BestParams) != conf.NumParams || full.SparkConf == "" {
		t.Fatalf("the session's result lacks what the test is about: %d parameters, %d bytes of spark conf", len(full.BestParams), len(full.SparkConf))
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	// job-000001 holds the result whole, as every job did; job-000002 settles
	// the way a worker settles it.
	whole := *full
	finishedJob(t, s, "job-000001", &whole)
	finishedJob(t, s, "job-000002", nil)
	s.mu.Lock()
	j := s.jobs["job-000002"]
	j.state, j.done = StateRunning, make(chan struct{})
	s.tenantLocked("").inFlight++
	s.settleLocked(j, StateSucceeded, full, nil)
	kept := j.result
	s.mu.Unlock()
	if kept.BestParams != nil || kept.SparkConf != "" || !reflect.DeepEqual(kept.BestConfig, full.BestConfig) {
		t.Fatalf("the settled job holds %d parameters and %d bytes of spark conf, want the configuration alone", len(kept.BestParams), len(kept.SparkConf))
	}
	if res, err := s.Result("job-000002"); err != nil || !reflect.DeepEqual(res, full) {
		t.Fatalf("Result returns %+v (%v), want the session's result %+v", res, err, full)
	}
	for _, st := range s.Jobs() {
		if !reflect.DeepEqual(st.Result, full) {
			t.Fatalf("Jobs lists %s with %+v, want the session's result", st.ID, st.Result)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resultOf := func(id string) string {
		var status struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(getBody(t, srv.URL+"/v1/jobs/"+id), &status); err != nil {
			t.Fatal(err)
		}
		return string(status.Result)
	}
	if got, want := resultOf("job-000002"), resultOf("job-000001"); got != want || len(want) < len(full.SparkConf) {
		t.Errorf("GET /v1/jobs/{id} embeds\n%s\nwant\n%s", got, want)
	}
	for _, route := range []string{"/result", "/conf"} {
		got, want := getBody(t, srv.URL+"/v1/jobs/job-000002"+route), getBody(t, srv.URL+"/v1/jobs/job-000001"+route)
		if string(got) != string(want) || len(want) < len(full.SparkConf) {
			t.Errorf("GET /v1/jobs/{id}%s =\n%s\nwant\n%s", route, got, want)
		}
	}
}

// writeCounter is a ResponseRecorder that counts the Write calls it is made.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestWriteJSONMatchesAFreshEncoder: the bodies writeJSON writes, one response
// after another through its reused encoder, are byte for byte what a fresh
// json.Encoder indenting by one space writes for a recommendation, a job
// result and an error envelope, each in one Write; a value that cannot be
// encoded gets its status and an empty body, and the next response is whole.
func TestWriteJSONMatchesAFreshEncoder(t *testing.T) {
	onePool(t)
	rec := Recommendation{
		Outcome:      "hit",
		BestConfig:   conf.Config{4, 8192, 0.6},
		BestParams:   map[string]float64{"spark.executor.cores": 4, "spark.executor.memory": 8192},
		SparkConf:    "spark.executor.cores 4\nspark.executor.memory 8192m\n",
		Confidence:   0.875,
		EstimatedSec: 412.25,
		Neighbors: []Neighbor{
			{JobID: "job-000001", Key: "arm_TPC-H_b7_qid", Distance: 0.25, Weight: 0.6, TunedSec: 400, TargetGB: 120, Obs: 30},
			{JobID: "job-000002", Key: "arm_TPC-H_b8_qid", Distance: 0.5, Weight: 0.4, TunedSec: 430, TargetGB: 250, Obs: 12},
		},
		RefineJobID: "job-000003",
	}
	bad := apiError{Error: apiErrorBody{Code: errorCode(http.StatusBadRequest), Message: `benchmark "<b>&co" is unknown`}}
	for _, v := range []any{rec, apiResult{Schema: resultSchema, JobResult: fullJobResult()}, bad, &JobResult{}, rec} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		writeJSON(w, http.StatusAccepted, v)
		if w.Code != http.StatusAccepted || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%T: status %d, Content-Type %q", v, w.Code, w.Header().Get("Content-Type"))
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%T: writeJSON wrote\n%s\na fresh encoder\n%s", v, w.Body.Bytes(), want.Bytes())
		}
		if w.writes != 1 {
			t.Fatalf("%T: writeJSON made %d writes, want 1", v, w.writes)
		}
	}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"sec": math.NaN()})
	if w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("a value that fails to encode: status %d, body %q; want 200 and no body", w.Code, w.Body.Bytes())
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusOK, bad)
	var back apiError
	if err := json.Unmarshal(w.Body.Bytes(), &back); err != nil || back != bad {
		t.Fatalf("the response after a failed encode reads %+v, %v", back, err)
	}
}
