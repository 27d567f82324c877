package runner

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locat/internal/conf"
	"locat/internal/sparksim"
)

// fakeGateway is the httptest stand-in for a spark-submit/REST gateway: it
// validates the submission payload and answers with an event-log-shaped
// response derived deterministically from the request.
func fakeGateway(t *testing.T, requests *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests != nil {
			requests.Add(1)
		}
		if r.Method != http.MethodPost || r.URL.Path != "/v1/submissions" {
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		var sub struct {
			AppName         string            `json:"app_name"`
			Queries         []string          `json:"queries"`
			DataGB          float64           `json:"data_gb"`
			SparkProperties map[string]string `json:"spark_properties"`
			Noiseless       bool              `json:"noiseless"`
		}
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(sub.SparkProperties) != conf.NumParams {
			http.Error(w, "incomplete property set", http.StatusBadRequest)
			return
		}
		// The response encodes the inputs so the test can verify parsing:
		// 1500 ms per query, +500 ms when noiseless is off.
		perQueryMS := int64(1500)
		if !sub.Noiseless {
			perQueryMS += 500
		}
		resp := map[string]any{
			"app_id":      "app-0001",
			"duration_ms": perQueryMS * int64(len(sub.Queries)),
			"gc_time_ms":  int64(120 * len(sub.Queries)),
			"queries":     []map[string]any{},
		}
		qs := make([]map[string]any, 0, len(sub.Queries))
		for _, name := range sub.Queries {
			qs = append(qs, map[string]any{
				"name":                name,
				"duration_ms":         perQueryMS,
				"gc_time_ms":          120,
				"shuffle_write_bytes": int64(3 << 20), // 3 MB
				"spill_bytes":         int64(1 << 20), // 1 MB
				"peak_mem_ratio":      0.75,
			})
		}
		resp["queries"] = qs
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

// The submission payload must carry the full configuration in
// spark-defaults.conf value syntax.
func TestSparkRestPayloadMapping(t *testing.T) {
	space := sparksim.ARM().Space()
	s := NewSparkRest("http://example.invalid", space)
	c := space.Default()
	body, err := s.Payload(batchApp(), c, 150, false)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		AppName         string            `json:"app_name"`
		Queries         []string          `json:"queries"`
		DataGB          float64           `json:"data_gb"`
		SparkProperties map[string]string `json:"spark_properties"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.AppName != "batch-test" || sub.DataGB != 150 || len(sub.Queries) != 2 {
		t.Fatalf("bad submission identity: %+v", sub)
	}
	if len(sub.SparkProperties) != conf.NumParams {
		t.Fatalf("payload carries %d properties, want %d", len(sub.SparkProperties), conf.NumParams)
	}
	// Spot-check value syntax: sized parameters carry Spark unit suffixes,
	// booleans render true/false.
	if v := sub.SparkProperties["spark.executor.memory"]; !strings.HasSuffix(v, "g") {
		t.Fatalf("spark.executor.memory=%q, want a g-suffixed size", v)
	}
	if v := sub.SparkProperties["spark.memory.offHeap.enabled"]; v != "true" && v != "false" {
		t.Fatalf("boolean property rendered %q", v)
	}
}

// RunApp must parse the event-log response with the right unit conversions.
func TestSparkRestRunApp(t *testing.T) {
	srv := httptest.NewServer(fakeGateway(t, nil))
	defer srv.Close()
	space := sparksim.ARM().Space()
	s := NewSparkRest(srv.URL, space)
	s.client = srv.Client()
	app := batchApp()
	res := s.RunApp(app, space.Default(), 100)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Sec != 4.0 { // 2 queries × 2000 ms
		t.Fatalf("Sec=%.3f, want 4.0", res.Sec)
	}
	if len(res.Queries) != 2 || res.Queries[0].Name != "Q1" {
		t.Fatalf("bad queries: %+v", res.Queries)
	}
	if got := res.Queries[0].ShuffleMB; got != 3.0 {
		t.Fatalf("ShuffleMB=%.3f, want 3.0", got)
	}
	if got := res.Queries[0].SpillMB; got != 1.0 {
		t.Fatalf("SpillMB=%.3f, want 1.0", got)
	}
	if res.GCSec != 0.24 {
		t.Fatalf("GCSec=%.3f, want 0.24", res.GCSec)
	}
	// A run into the caller's buffer parses into its array.
	buf := make([]QueryResult, 0, len(app.Queries))
	if got := s.RunAppAt(s.ReserveRuns(1), app, space.Default(), 100, buf); !reflect.DeepEqual(got, res) || &got.Queries[0] != &buf[:1][0] {
		t.Fatalf("RunAppAt into a buffer: %+v, want %+v in the buffer's array", got, res)
	}

	// Noiseless evaluations flag the submission and parse the same shape.
	if sec := s.NoiselessAppTime(app, space.Default(), 100); sec != 3.0 {
		t.Fatalf("NoiselessAppTime=%.3f, want 3.0", sec)
	}

	// Batches run through the generic pool.
	cs := randomConfigs(space, 6, 2)
	results, done := RunBatch(s, app, cs, func(int) float64 { return 100 }, 0, nil)
	if done != len(cs) {
		t.Fatalf("done=%d", done)
	}
	for i, r := range results {
		if r.Sec != 4.0 {
			t.Fatalf("batch item %d: Sec=%.3f", i, r.Sec)
		}
	}
}

// Transport failures must be sticky: the first error poisons the backend
// and later runs short-circuit without hitting the gateway.
func TestSparkRestStickyError(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "cluster on fire", http.StatusInternalServerError)
	}))
	defer srv.Close()
	space := sparksim.ARM().Space()
	s := NewSparkRest(srv.URL, space)
	s.client = srv.Client()
	app := batchApp()
	if res := s.RunApp(app, space.Default(), 100); res.Sec != 0 {
		t.Fatalf("failed run returned %.3f, want zero result", res.Sec)
	}
	if s.Err() == nil {
		t.Fatal("error not recorded")
	}
	before := requests.Load()
	if res := s.RunApp(app, space.Default(), 100); res.Sec != 0 {
		t.Fatal("poisoned backend executed a run")
	}
	if requests.Load() != before {
		t.Fatal("poisoned backend still hit the gateway")
	}
}

// The gateway's submission cap must hold through the service's whole stack,
// not only on a bare backend: a 16-configuration batch at 16 workers never
// has more than 4 submissions in flight.
func TestSparkRestCapThroughServiceStack(t *testing.T) {
	var inFlight, peak atomic.Int64
	gateway := fakeGateway(t, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond) // hold the slot so submissions overlap
		gateway.ServeHTTP(w, r)
	}))
	defer srv.Close()
	space := sparksim.ARM().Space()
	s := NewSparkRest(srv.URL, space)
	s.client = srv.Client()
	g := &rig{}
	cs := randomConfigs(space, 16, 4)
	results, done := RunBatch(production(s, g, ChaosOptions{Seed: 1}), batchApp(), cs, func(int) float64 { return 100 }, 16, nil)
	if done != len(cs) || s.Err() != nil {
		t.Fatalf("done=%d of %d, err %v", done, len(cs), s.Err())
	}
	for i, r := range results {
		if r.Sec != 4.0 {
			t.Fatalf("batch item %d: Sec=%.3f", i, r.Sec)
		}
	}
	if runs, _ := g.tally.Snapshot(); runs != int64(len(cs)) {
		t.Fatalf("stack observed %d runs, want %d", runs, len(cs))
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("gateway saw %d submissions in flight, the cap is 4", p)
	}
}
