package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"locat/internal/runner"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// postStatuses is every status a POST endpoint may answer with: accepted or
// served, malformed, oversized, wrong media type, invalid spec, back-pressure,
// closing.
var postStatuses = map[int]bool{
	http.StatusOK: true, http.StatusAccepted: true, http.StatusBadRequest: true,
	http.StatusRequestEntityTooLarge: true, http.StatusUnsupportedMediaType: true,
	http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
	http.StatusServiceUnavailable: true,
}

// fuzzSeedBodies are the README's curl bodies plus the numbers and fields a
// hostile client would try.
var fuzzSeedBodies = []string{
	`{"benchmark":"TPC-H","data_size_gb":100}`,
	`{"benchmark":"TPC-H","data_size_gb":120}`,
	`{"benchmark":"TPC-H","data_size_gb":100,"n_qcsa":10,"n_iicp":8,"max_iterations":8}`,
	`{"cluster":"x86","benchmark":"Join","tenant":"acme","priority":"interactive","deadline_sec":1.5,"max_cluster_sec":1e6,"cold_start":true,"backend":"sim"}`,
	`{"benchmark":"TPC-H","data_size_gb":120,"k":3,"max_distance":0.9,"min_confidence":0.1,"refine":true}`,
	`{"benchmark":"TPC-H","data_size_gb":4000,"no_fallback":true}`,
	`{"data_size_gb":NaN}`,
	`{"data_size_gb":-1}`,
	`{"data_size_gb":1e999}`,
	`{"data_size_gb":1e308,"seed":-9223372036854775808,"n_qcsa":2147483648000}`,
	`{"deadline_sec":-0.0,"max_cluster_sec":-5}`,
	`{"benchmark":"../../etc/passwd","cluster":"arm "}`,
	`{"priority":"urgent"}`,
	`{"backend":"replay=/nonexistent,miss=nearest,tol=NaN"}`,
	`{"benchmark":"TPC-H","no_such_field":{"nested":[1,2,3]}}`,
	`{"k":-1,"max_distance":-1,"min_confidence":2}`,
	`[]`, `null`, `{`, ``, `"x"`,
}

// postFuzz sends one body through the real handler of a fresh, parked
// service — nothing it admits ever runs — and checks what every POST answer
// owes the client: a known status and, unless 2xx, the error envelope.
// history seeds the store the recommendation tier retrieves from.
func postFuzz(t *testing.T, route string, history []Entry, body []byte, ctype string) (*Service, *httptest.ResponseRecorder) {
	t.Helper()
	store := NewMemStore()
	for _, e := range history {
		store.Put(e)
	}
	s := New(Config{Workers: 1, QueueCap: 2, Store: store, CheckpointEvery: -1})
	s.Hold()
	t.Cleanup(s.Close)
	req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !postStatuses[w.Code] {
		t.Fatalf("POST %s %q = %d, not a status the API documents", route, body, w.Code)
	}
	if w.Code >= 300 {
		var env apiError
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("POST %s %q = %d with body %q, want the error envelope", route, body, w.Code, w.Body)
		}
	}
	return s, w
}

// specSurvivesNormalize reads an admitted job back over the wire: the spec it
// was stored under must already be normalized — valid, and a fixed point.
func specSurvivesNormalize(t *testing.T, s *Service, id string) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d %q (%v)", id, w.Code, w.Body, err)
	}
	again := st.Spec
	if err := again.normalize(); err != nil || again != st.Spec {
		t.Fatalf("admitted spec %+v does not survive normalize: %+v, %v", st.Spec, again, err)
	}
}

func FuzzSubmitHandler(f *testing.F) {
	for _, b := range fuzzSeedBodies {
		f.Add([]byte(b), "application/json")
	}
	f.Add([]byte(fuzzSeedBodies[0]), "")
	f.Add([]byte(fuzzSeedBodies[0]), "text/plain")
	f.Add([]byte(fuzzSeedBodies[0]), "Application/JSON; charset=utf-8")
	f.Fuzz(func(t *testing.T, body []byte, ctype string) {
		s, w := postFuzz(t, "/v1/jobs", nil, body, ctype)
		if w.Code == http.StatusOK {
			t.Fatalf("POST /v1/jobs %q = 200; an admitted job is 202", body)
		}
		if w.Code != http.StatusAccepted {
			return
		}
		var out struct{ ID, State string }
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.ID == "" || out.State != string(StateQueued) {
			t.Fatalf("202 body %q: want an id and state queued (%v)", w.Body, err)
		}
		specSurvivesNormalize(t, s, out.ID)
	})
}

func FuzzRecommendHandler(f *testing.F) {
	for _, b := range fuzzSeedBodies {
		f.Add([]byte(b), "application/json")
	}
	f.Add([]byte(fuzzSeedBodies[1]), "application/xml")
	// Three past TPC-H sessions around 100 GB, so well-formed requests reach
	// the hit and refine paths as well as the fallback.
	space := sparksim.ARM().Space()
	rng := rand.New(rand.NewSource(1))
	var history []Entry
	for i, gb := range []float64{90, 100, 140} {
		spec := JobSpec{Benchmark: "TPC-H", DataSizeGB: gb}
		if err := spec.normalize(); err != nil {
			f.Fatal(err)
		}
		history = append(history, oracleEntry(rng, space, spec, "job-seed-"+string(rune('a'+i)), int64(1000+i), 12, 1, []string{"q3"}, nil))
	}
	f.Fuzz(func(t *testing.T, body []byte, ctype string) {
		s, w := postFuzz(t, "/v1/recommend", history, body, ctype)
		if w.Code == http.StatusAccepted {
			t.Fatalf("POST /v1/recommend %q = 202; a recommendation is served, 200", body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var rec Recommendation
		if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
			t.Fatalf("200 body %q: %v", w.Body, err)
		}
		switch rec.Outcome {
		case "hit", "miss":
		case "fallback":
			if rec.RefineJobID == "" {
				t.Fatalf("fallback without a job: %q", w.Body)
			}
		default:
			t.Fatalf("outcome %q", rec.Outcome)
		}
		if !(rec.Confidence >= 0 && rec.Confidence <= 1) || rec.Neighbors == nil {
			t.Fatalf("confidence %v, neighbors %v", rec.Confidence, rec.Neighbors)
		}
		if rec.RefineJobID != "" {
			specSurvivesNormalize(t, s, rec.RefineJobID)
		}
	})
}

// FuzzCheckpointLoad: whatever bytes sit in a checkpoint file, GetCheckpoint
// either refuses them or returns a checkpoint of the job the file is named
// after, and resuming from it — a run cache over its entries, on either
// cluster, answering one run and one noiseless evaluation — does not panic:
// resume reads these files from disk on every restart. The seeds are
// the checkpoint lifecycle_test.go plants (a spec, no runs) and the same one
// carrying a paid run and a noiseless evaluation, as a session writes them.
func FuzzCheckpointLoad(f *testing.F) {
	const id = "job-000001"
	spec := quickSpec(100, 1)
	planted := Checkpoint{JobID: id, Spec: spec}
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 1)
	app, c := workloads.TPCH(), cl.Space().Default()
	res := sim.RunApp(app, c, 100)
	paid := Checkpoint{JobID: id, Spec: spec, Fingerprint: NewFingerprint(spec).Key(), CreatedUnix: 1700000000,
		Entries: []runner.TraceEntry{
			{Kind: runner.TraceApp, App: app.Name, NQ: len(app.Queries), Conf: c, DataGB: 100, Result: &res},
			{Kind: runner.TraceNoiseless, App: app.Name, NQ: len(app.Queries), Conf: c, DataGB: 100, Sec: sim.NoiselessAppTime(app, c, 100)},
		}}
	for _, cp := range []Checkpoint{planted, paid} {
		data, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"job_id":"job-000002","spec":{"benchmark":"TPC-H"}}`))
	f.Add([]byte(`{"job_id":"","entries":[{"kind":"app","conf":[1],"result":{"sec":-1}}]}`))
	f.Add([]byte(`{"job_id":"job-000001","entries":[{"kind":"app","conf":null,"result":null}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	dir := f.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoints", id+".json")
	backends := []runner.Runner{sim, sparksim.New(sparksim.X86(), 1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := fs.GetCheckpoint(id)
		if err != nil {
			return
		}
		if cp == nil || cp.JobID != id {
			t.Fatalf("checkpoint file %s.json loaded as %+v", id, cp)
		}
		for _, b := range backends {
			cache := runner.NewCache(b, cp.Entries, nil)
			cf := b.Space().Default()
			cache.RunAppAt(0, app, cf, 100, nil)
			cache.NoiselessAppTime(app, cf, 100)
		}
	})
}
