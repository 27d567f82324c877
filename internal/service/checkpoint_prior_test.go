package service

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"locat/internal/runner"
	"locat/internal/sparksim"
)

// liveGateway stands in for a spark-submit/REST gateway: a backend that is
// not deterministic as far as the service can tell, so a resumed job takes
// its checkpoint in as a warm-start prior instead of through the run cache.
// Latencies vary with the configuration so the surrogate has something to
// fit.
func liveGateway() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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

// A checkpoint is a file: one of its entries may hold a configuration that is
// not of the space's dimension (written under another parameter table, or
// damaged). On a backend that resumes through the prior, that entry used to
// reach space.Encode unchecked and panic the session — and every restart
// re-read the same checkpoint and failed the same way. It must be skipped,
// the way history observations of the wrong dimension are.
func TestResumeSkipsCheckpointEntryOfWrongDimension(t *testing.T) {
	gw := httptest.NewServer(liveGateway())
	defer gw.Close()

	spec := quickSpec(100, 5)
	spec.Backend = "sparkrest=" + gw.URL
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	space := sparksim.ARM().Space()
	rng := rand.New(rand.NewSource(5))
	cp := Checkpoint{JobID: "job-000001", Spec: spec, Fingerprint: NewFingerprint(spec).Key(), CreatedUnix: 1}
	for i := 0; i < 7; i++ {
		c := space.Random(rng)
		if i == 3 {
			c = c[:9]
		}
		cp.Entries = append(cp.Entries, runner.TraceEntry{
			Kind: runner.TraceApp, Idx: uint64(i), Conf: c, DataGB: 100,
			Result: &runner.AppResult{Sec: 40 + 10*float64(i)},
		})
	}
	if p := checkpointPrior(&cp, space); p == nil || len(p.Obs) != 6 {
		t.Fatalf("checkpointPrior kept %+v, want the six full-length observations", p)
	}

	ms := NewMemStore()
	if err := ms.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: ms, Resume: true})
	defer s.Close()
	res, err := s.Result(cp.JobID)
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if !res.WarmStarted || res.PriorObsUsed != 6 {
		t.Fatalf("resumed session warm=%v with %d prior observations, want the checkpoint's six",
			res.WarmStarted, res.PriorObsUsed)
	}
}
