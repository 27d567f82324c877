package locat

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"locat/internal/service"
)

func TestServiceFacade(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 2, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Cold job.
	o := fastOpts()
	idA, err := svc.Submit(o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(idA)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != idA || st.State.Terminal() && st.State != JobState("succeeded") {
		t.Fatalf("early status %+v", st)
	}
	resA, err := svc.Result(idA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.WarmStarted {
		t.Fatal("first job warm")
	}
	if len(resA.BestParams) != 38 || resA.TunedSeconds >= resA.DefaultSeconds {
		t.Fatalf("degenerate result %+v", resA)
	}
	if resA.SamplingSeconds <= 0 || resA.SearchSeconds <= 0 {
		t.Fatal("missing per-phase overhead")
	}
	if resA.SparkConf() == "" {
		t.Fatal("service result cannot render spark-defaults.conf")
	}
	if len(resA.Phases) == 0 {
		t.Fatal("service result missing phase timeline")
	}

	// Neighboring-size job warm-starts from job A's cross-size history (the
	// only entry that exists when it runs), and costs less than the same
	// job run cold: the ColdStart control — submitted afterwards so it
	// cannot feed B an exact-size prior — holds workload, size and seed
	// fixed, so the comparison isn't confounded by the different input size
	// and seed the way comparing against job A would be.
	o2 := fastOpts()
	o2.DataSizeGB = 140
	o2.Seed = 4
	idB, err := svc.Submit(o2)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := svc.Result(idB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.WarmStarted {
		t.Fatal("neighboring-size job not warm-started")
	}
	oCtl := o2
	oCtl.ColdStart = true
	idCtl, err := svc.Submit(oCtl)
	if err != nil {
		t.Fatal(err)
	}
	resCtl, err := svc.Result(idCtl)
	if err != nil {
		t.Fatal(err)
	}
	if resCtl.WarmStarted {
		t.Fatal("ColdStart control consumed history")
	}
	if resB.OverheadSeconds >= resCtl.OverheadSeconds {
		t.Fatalf("warm overhead %.0f not below the cold control's %.0f",
			resB.OverheadSeconds, resCtl.OverheadSeconds)
	}

	// History and job listing reflect all three sessions (the ColdStart
	// control skips retrieval, not persistence).
	hist, err := svc.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history %+v, want 3 entries", hist)
	}
	jobs := svc.Jobs()
	if len(jobs) != 3 || jobs[0].ID != idA || jobs[1].ID != idB || jobs[2].ID != idCtl {
		t.Fatalf("job listing %+v", jobs)
	}
	for _, j := range jobs {
		if j.State != JobState("succeeded") || j.Fingerprint == "" {
			t.Fatalf("job %+v", j)
		}
	}
}

func TestServiceRejectsSchedule(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	o := fastOpts()
	o.Schedule = func(run int) float64 { return 100 }
	if _, err := svc.Submit(o); err == nil {
		t.Fatal("Schedule accepted by the service")
	}
}

// TestQuietControlsProgressLog verifies the Quiet option actually gates the
// progress logger (it was a documented no-op before the logger existed).
func TestQuietControlsProgressLog(t *testing.T) {
	captureStderr := func(f func()) string {
		old := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		done := make(chan string)
		go func() {
			data, _ := io.ReadAll(r)
			done <- string(data)
		}()
		f()
		w.Close()
		os.Stderr = old
		return <-done
	}

	o := Options{Benchmark: "Scan", NQCSA: 6, NIICP: 5, MaxIterations: 5, Seed: 9}

	o.Quiet = true
	quiet := captureStderr(func() {
		if _, err := Tune(o); err != nil {
			t.Fatal(err)
		}
	})
	if strings.Contains(quiet, "phase") {
		t.Fatalf("Quiet session logged progress: %q", quiet)
	}

	o.Quiet = false
	loud := captureStderr(func() {
		if _, err := Tune(o); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(loud, "phase 1") || !strings.Contains(loud, "locat:") {
		t.Fatalf("non-Quiet session logged nothing useful: %q", loud)
	}
}

// TestFacadeMatchesWire: the facade serves the values the HTTP API serves —
// each route's JSON decodes into the facade's own type and equals what the
// facade returned for the same question.
func TestFacadeMatchesWire(t *testing.T) {
	svc, err := NewService(ServiceOptions{HistoryDir: t.TempDir(), Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	o := fastOpts()
	id, err := svc.Submit(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st, err := svc.Status(id)
	if err != nil || st.Result == nil {
		t.Fatalf("status %+v, %v", st, err)
	}
	matchesWire(t, srv.URL+"/v1/jobs/"+id, nil, st)
	matchesWire(t, srv.URL+"/v1/jobs", nil, svc.Jobs())
	hist, err := svc.History()
	if err != nil || len(hist) != 1 {
		t.Fatalf("history %+v, %v", hist, err)
	}
	matchesWire(t, srv.URL+"/v1/history", nil, hist)
	// One stored session is too little evidence for a hit, but a miss still
	// serves the blend and its provenance.
	rec, err := svc.Recommend(o, RecommendOptions{NoFallback: true})
	if err != nil || len(rec.Neighbors) != 1 || rec.SparkConf == "" {
		t.Fatalf("recommendation %+v, %v", rec, err)
	}
	req, err := json.Marshal(service.RecommendRequest{JobSpec: specOf(o), NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	matchesWire(t, srv.URL+"/v1/recommend", req, rec)
}

// matchesWire GETs url (POSTs body when non-nil), decodes the response into
// a T and compares it with facade. The facade's value goes through
// encoding/json too: its time.Time fields carry a monotonic reading the
// wire drops.
func matchesWire[T any](t *testing.T, url string, body []byte, facade T) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(string(body)))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire, want T
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	b, err := json.Marshal(facade)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, wire) {
		t.Errorf("%s:\nfacade %+v\nwire   %+v", url, want, wire)
	}
}

// NewService refuses retrieval knobs that break every recommendation: a NaN
// radius drops the k-NN radius cut, and a confidence that no blend can reach
// turns each recommendation into a fallback tuning job.
func TestNewServiceRejectsBadRecommendKnobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    ServiceOptions
	}{
		{"distance NaN", ServiceOptions{RecommendMaxDistance: math.NaN()}},
		{"distance +Inf", ServiceOptions{RecommendMaxDistance: math.Inf(1)}},
		{"distance -Inf", ServiceOptions{RecommendMaxDistance: math.Inf(-1)}},
		{"distance negative", ServiceOptions{RecommendMaxDistance: -1}},
		{"confidence NaN", ServiceOptions{RecommendConfidence: math.NaN()}},
		{"confidence above 1", ServiceOptions{RecommendConfidence: 2}},
		{"confidence negative", ServiceOptions{RecommendConfidence: -0.5}},
		{"k negative", ServiceOptions{RecommendK: -1}},
	} {
		tc.o.Quiet = true
		if svc, err := NewService(tc.o); err == nil {
			svc.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Zero (the defaults) and the ends of each range still start.
	for _, o := range []ServiceOptions{
		{},
		{RecommendK: 1, RecommendMaxDistance: 2.5, RecommendConfidence: 1},
	} {
		o.Quiet = true
		svc, err := NewService(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		svc.Close()
	}
}
