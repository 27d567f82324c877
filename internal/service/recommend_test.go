package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"locat/internal/obs"
	"locat/internal/service/retrieve"
)

// seedHistory runs quick tuning jobs so the history store holds real
// sessions for retrieval, and returns their IDs in submission order.
func seedHistory(t *testing.T, s *Service, sizes []float64) []string {
	t.Helper()
	var ids []string
	for i, gb := range sizes {
		id, err := s.Submit(quickSpec(gb, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		// Await each job before submitting the next: the store contents (and
		// therefore the index) are identical no matter how many workers the
		// service runs.
		if _, err := s.Result(id); err != nil {
			t.Fatalf("seed job %s: %v", id, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// runTally extracts the execution counters from a metrics scrape — the
// ground truth for "zero sample runs".
func runTally(t *testing.T, s *Service) string {
	t.Helper()
	var buf bytes.Buffer
	s.Metrics().WritePrometheus(&buf)
	var lines []string
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(ln, "locat_runs_total") ||
			strings.HasPrefix(ln, "locat_run_cluster_seconds_total") {
			lines = append(lines, ln)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no run counters in scrape")
	}
	return strings.Join(lines, "\n")
}

// TestRecommendHTTP drives POST /v1/recommend through its outcomes.
func TestRecommendHTTP(t *testing.T) {
	svc := New(Config{Workers: 2, Metrics: obs.NewRegistry()})
	defer svc.Close()
	seedHistory(t, svc, []float64{100, 140})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	empty := New(Config{Workers: 1, Metrics: obs.NewRegistry()})
	defer empty.Close()
	emptySrv := httptest.NewServer(empty.Handler())
	defer emptySrv.Close()

	quickDS := quickSpec(120, 9)
	quickDS.Benchmark = "TPC-DS"

	cases := []struct {
		name        string
		url         string
		req         RecommendRequest
		wantOutcome string
		wantRefine  bool // refine_job_id present
	}{
		{
			name:        "hit",
			url:         srv.URL,
			req:         RecommendRequest{JobSpec: quickSpec(120, 9), NoFallback: true},
			wantOutcome: "hit",
		},
		{
			name: "low confidence falls back to a tuning job",
			url:  srv.URL,
			// A different benchmark sits past the neighbor radius: no usable
			// neighbors, a real job is submitted instead.
			req:         RecommendRequest{JobSpec: quickDS},
			wantOutcome: "fallback",
			wantRefine:  true,
		},
		{
			name:        "empty store is a miss with no_fallback",
			url:         emptySrv.URL,
			req:         RecommendRequest{JobSpec: quickSpec(120, 9), NoFallback: true},
			wantOutcome: "miss",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec Recommendation
			doJSON(t, client, "POST", tc.url+"/v1/recommend", tc.req, http.StatusOK, &rec)
			if rec.Outcome != tc.wantOutcome {
				t.Fatalf("outcome = %q, want %q (%+v)", rec.Outcome, tc.wantOutcome, rec)
			}
			if got := rec.RefineJobID != ""; got != tc.wantRefine {
				t.Fatalf("refine_job_id = %q, want present=%v", rec.RefineJobID, tc.wantRefine)
			}
			if tc.wantOutcome == "hit" {
				if rec.Confidence < DefaultRecommendConfidence || len(rec.Neighbors) != 2 {
					t.Fatalf("hit evidence: confidence %.2f, %d neighbors", rec.Confidence, len(rec.Neighbors))
				}
				if len(rec.BestParams) == 0 || !strings.Contains(rec.SparkConf, "spark.executor.cores") {
					t.Fatalf("hit has no config: %+v", rec)
				}
				if rec.EstimatedSec <= 0 {
					t.Fatalf("hit has no latency estimate: %+v", rec)
				}
			}
			if tc.wantOutcome == "miss" && len(rec.Neighbors) != 0 {
				t.Fatalf("miss with neighbors: %+v", rec.Neighbors)
			}
		})
	}

	// Malformed spec: unknown cluster is 422 with the envelope.
	bad := RecommendRequest{JobSpec: JobSpec{Cluster: "sparc"}}
	var env apiError
	doJSON(t, client, "POST", srv.URL+"/v1/recommend", bad, http.StatusUnprocessableEntity, &env)
	if env.Error.Code != "invalid_spec" {
		t.Fatalf("envelope = %+v", env)
	}

	// Non-JSON content type is refused before decoding.
	resp, err := client.Post(srv.URL+"/v1/recommend", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain recommend = %d, want 415", resp.StatusCode)
	}
}

// TestRecommendZeroExecutions is the acceptance check of the tier: a
// repeat-neighborhood workload served via Recommend consumes zero simulated
// cluster seconds — the run tally in the metrics registry does not move.
func TestRecommendZeroExecutions(t *testing.T) {
	svc := New(Config{Workers: 2, Metrics: obs.NewRegistry()})
	defer svc.Close()
	seedHistory(t, svc, []float64{100, 140})

	before := runTally(t, svc)
	for _, gb := range []float64{100, 110, 120, 130, 140} {
		rec, err := svc.Recommend(RecommendRequest{JobSpec: quickSpec(gb, 7), NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome != "hit" {
			t.Fatalf("%g GB: outcome %q (confidence %.2f)", gb, rec.Outcome, rec.Confidence)
		}
	}
	if after := runTally(t, svc); after != before {
		t.Fatalf("recommendations executed runs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestRecommendDeterministicAcrossWorkers pins the determinism discipline:
// the same seeded history and the same request produce bit-identical
// recommendations no matter the worker count.
func TestRecommendDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		params     map[string]float64
		confidence float64
		keys       []string
		dists      []float64
	}
	var base *snapshot
	for _, workers := range []int{1, 2, 4} {
		svc := New(Config{Workers: workers, Metrics: obs.NewRegistry()})
		seedHistory(t, svc, []float64{100, 140, 100})
		rec, err := svc.Recommend(RecommendRequest{JobSpec: quickSpec(120, 5), NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		svc.Close()
		got := &snapshot{params: rec.BestParams, confidence: rec.Confidence}
		for _, n := range rec.Neighbors {
			got.keys = append(got.keys, n.Key+"/"+n.JobID)
			got.dists = append(got.dists, n.Distance)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got.params, base.params) ||
			got.confidence != base.confidence ||
			!reflect.DeepEqual(got.keys, base.keys) ||
			!reflect.DeepEqual(got.dists, base.dists) {
			t.Fatalf("workers=%d diverges:\n%+v\nvs workers=1:\n%+v", workers, got, base)
		}
	}
}

// TestRecommendRefineSeedsSession: a refine=true hit answers immediately and
// additionally starts a background session warm-started from the retrieved
// neighbors, with the provenance recorded on the job result.
func TestRecommendRefineSeedsSession(t *testing.T) {
	svc := New(Config{Workers: 1, Metrics: obs.NewRegistry()})
	defer svc.Close()
	seedHistory(t, svc, []float64{100, 140})

	rec, err := svc.Recommend(RecommendRequest{JobSpec: quickSpec(120, 6), Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "hit" || rec.RefineJobID == "" || rec.RefineError != "" {
		t.Fatalf("refine hit = %+v", rec)
	}
	res, err := svc.Result(rec.RefineJobID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStarted || res.PriorObsUsed == 0 {
		t.Fatalf("refine session not warm-started: %+v", res)
	}
	if len(res.SeededFrom) != len(rec.Neighbors) {
		t.Fatalf("refine provenance: %d seeded_from, want %d", len(res.SeededFrom), len(rec.Neighbors))
	}
}

// TestPlainAndRefineJobsStartFromTheSamePrior: one workload over one history
// starts from one prior, whichever door the job came in through. The only
// stored session sits two size buckets below the target — inside the k-NN
// radius, outside any same-or-adjacent-bucket lookup.
func TestPlainAndRefineJobsStartFromTheSamePrior(t *testing.T) {
	spec := quickSpec(400, 9)
	run := func(submit func(*Service) (string, error)) *JobResult {
		svc := New(Config{Workers: 1})
		defer svc.Close()
		seedHistory(t, svc, []float64{100})
		id, err := submit(svc)
		if err != nil || id == "" {
			t.Fatalf("no job submitted: %q, %v", id, err)
		}
		res, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(func(svc *Service) (string, error) { return svc.Submit(spec) })
	viaRec := run(func(svc *Service) (string, error) {
		rec, err := svc.Recommend(RecommendRequest{JobSpec: spec, Refine: true}) // hit or miss, a job follows
		if err != nil {
			return "", err
		}
		return rec.RefineJobID, nil
	})
	if !plain.WarmStarted || plain.PriorObsUsed == 0 || len(plain.SeededFrom) != 1 ||
		plain.WarmStarted != viaRec.WarmStarted || plain.PriorObsUsed != viaRec.PriorObsUsed ||
		!reflect.DeepEqual(plain.SeededFrom, viaRec.SeededFrom) {
		t.Errorf("plain job: warm=%v, %d prior obs, seeded from %+v\nrecommend's job: warm=%v, %d prior obs, seeded from %+v\nwant both warm from the one stored session",
			plain.WarmStarted, plain.PriorObsUsed, plain.SeededFrom,
			viaRec.WarmStarted, viaRec.PriorObsUsed, viaRec.SeededFrom)
	}
}

// TestRecommendIndexPersistence: the k-NN index file survives a store
// reopen, its persisted vectors are reused rather than recomputed, and
// entries deleted from the store are compacted out on the next build.
func TestRecommendIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, Store: fs, Metrics: obs.NewRegistry()})
	seedHistory(t, svc, []float64{100})
	if n := svc.Recommender().Len(); n != 1 {
		t.Fatalf("index has %d items, want 1", n)
	}
	svc.Close()
	if _, err := os.Stat(fs.IndexPath()); err != nil {
		t.Fatalf("index file not persisted: %v", err)
	}
	// The index must never surface as a history shard.
	keys, err := fs.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store keys = %v, %v", keys, err)
	}

	// Reopen: the recommender comes back with the entry indexed.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRecommender(fs2, nil)
	if rc.Len() != 1 {
		t.Fatalf("reopened index has %d items, want 1", rc.Len())
	}

	// Persisted vectors are reused, not recomputed: plant a sentinel vector
	// for the stored entry, rebuild, and watch retrieval honor the sentinel.
	entries, err := fs2.Get(keys[0])
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %d, %v", len(entries), err)
	}
	far := retrieve.NewIndex()
	sentinel := make([]float64, len(retrieve.Workload{}.Vector()))
	for i := range sentinel {
		sentinel[i] = 1e6
	}
	far.Upsert(retrieve.Item{ID: entryID(entries[0]), Key: keys[0], Vec: sentinel})
	if err := far.Save(fs2.IndexPath()); err != nil {
		t.Fatal(err)
	}
	rc = NewRecommender(fs2, nil)
	rec, err := rc.Recommend(quickSpec(100, 1), RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Neighbors) != 0 {
		t.Fatalf("sentinel vector was recomputed: %+v", rec.Neighbors)
	}

	// Deleting the shard compacts the index on the next build.
	if err := os.Remove(filepath.Join(dir, keys[0]+".json")); err != nil {
		t.Fatal(err)
	}
	if rc = NewRecommender(fs2, nil); rc.Len() != 0 {
		t.Fatalf("index kept %d items after shard delete", rc.Len())
	}
}

// indexLines counts the lines of the index file: its header and one per
// record.
func indexLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestRecommenderIndexLog follows the index file through a recommender's
// life: a file of an older schema is replaced by a rebuilt snapshot, each
// added entry costs one appended line, the snapshot is rewritten once the
// appended lines outnumber the live items, a key at the per-key cap is
// reconciled against the store at two appended lines a session, stale matches
// are logged as removals — and
// at every point the file replays to exactly what the recommender holds.
func TestRecommenderIndexLog(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := fs.IndexPath()
	for b := 5; b < 8; b++ {
		if err := fs.Put(bucketEntry("seed", 1000, b)); err != nil {
			t.Fatal(err)
		}
	}
	schema1 := `{
 "schema": 1,
 "items": [
  {
   "id": "stale",
   "key": "k",
   "vec": [
    1
   ]
  }
 ]
}`
	if err := os.WriteFile(path, []byte(schema1), 0o644); err != nil {
		t.Fatal(err)
	}
	rc := NewRecommender(fs, nil)
	inStep := func(when string) {
		t.Helper()
		if got, want := retrieve.Load(path).Items(), rc.ix.Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the index file replays to %d items, the recommender holds %d", when, len(got), len(want))
		}
	}
	if rc.Len() != 3 || rc.ix.Has("stale") {
		t.Fatalf("index over an old-schema file has %d items, want the store's 3", rc.Len())
	}
	inStep("rebuilt from the store")
	if n := indexLines(t, path); n != 1+3 {
		t.Fatalf("rebuilt index file has %d lines, want a header and 3", n)
	}

	put := func(e Entry) {
		t.Helper()
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
		rc.Add(e)
	}
	for i := 0; i < 3; i++ {
		put(bucketEntry("added", int64(2000+i), 5))
		if n := indexLines(t, path); n != 1+3+i+1 {
			t.Fatalf("add %d: index file has %d lines, want %d", i, n, 1+3+i+1)
		}
		inStep("after an add")
	}

	// The same session persisted again replaces its item: the log grows, the
	// index does not, and the snapshot is rewritten when the log is more than
	// twice the items.
	live, compacted := rc.Len(), false
	for i := 0; i < 2*live && !compacted; i++ {
		before := indexLines(t, path)
		rc.Add(bucketEntry("added", 2000, 5))
		inStep("after a repeated add")
		n := indexLines(t, path)
		if n > 1+2*live {
			t.Fatalf("index file grew to %d lines over %d items", n, live)
		}
		compacted = n < before
		if compacted && n != 1+live {
			t.Fatalf("compacted index file has %d lines, want a header and %d", n, live)
		}
	}
	if !compacted || rc.Len() != live {
		t.Fatalf("the log was never compacted (%d items, %d lines)", rc.Len(), indexLines(t, path))
	}

	// Across the per-key cap the index follows the store's evictions.
	// At the cap each session costs the log two lines, the new item and the
	// removal of the one evicted for it, not a snapshot of every item.
	key := bucketEntry("", 0, 7).Fingerprint.Key()
	appendedAtCap := 0
	for i := 0; i < maxEntriesPerKey+5; i++ {
		before := indexLines(t, path)
		put(bucketEntry(fmt.Sprintf("capped-%02d", i), int64(3000+i), 7))
		if n := indexLines(t, path); i >= maxEntriesPerKey && n == before+2 {
			appendedAtCap++
		} else if i >= maxEntriesPerKey && n != 1+rc.Len() {
			t.Fatalf("put %d at the cap: the index file went from %d to %d lines, want two appended or a snapshot of %d items", i, before, n, rc.Len())
		}
		entries, err := fs.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if n := rc.ix.KeyLen(key); n != len(entries) {
			t.Fatalf("put %d: %d items under %s, the shard holds %d", i, n, key, len(entries))
		}
		for _, e := range entries {
			if !rc.ix.Has(entryID(e)) {
				t.Fatalf("put %d: %s is in the shard and not in the index", i, entryID(e))
			}
		}
		inStep("across the cap")
	}
	if appendedAtCap < 3 {
		t.Fatalf("%d of 5 sessions at the cap were appended to the log, want all but the one the log rule snapshots", appendedAtCap)
	}

	// A shard that vanished is found out by retrieval, and the removals are
	// logged.
	before := rc.Len()
	if err := os.Remove(filepath.Join(dir, key+".json")); err != nil {
		t.Fatal(err)
	}
	// Every entry here has the same target size, so the first ten matches
	// are decided on ID order: four under bucket 5, one under 6, five under 7.
	if _, err := rc.Recommend(quickSpec(100, 1), RecommendOptions{K: 10}); err != nil {
		t.Fatal(err)
	}
	if rc.Len() != before-5 {
		t.Fatalf("retrieval over a vanished shard left %d of %d items, want 5 fewer", rc.Len(), before)
	}
	inStep("after lazy compaction")

	// A restart loads the log and reconciles the rest of the vanished shard.
	rc = NewRecommender(fs, nil)
	if rc.ix.KeyLen(key) != 0 || rc.Len() != 5 {
		t.Fatalf("reopened index has %d items (%d under the vanished key), want 5", rc.Len(), rc.ix.KeyLen(key))
	}
	inStep("after a restart")
	if n := indexLines(t, path); n != 1+rc.Len() {
		t.Fatalf("index file after a restart has %d lines, want a header and %d", n, rc.Len())
	}
}

// TestRecommendRequestJSONShape pins the flattened wire format of the
// request: spec fields, retrieval options and mode flags all at top level.
func TestRecommendRequestJSONShape(t *testing.T) {
	var req RecommendRequest
	blob := `{"benchmark":"TPC-H","data_size_gb":120,"k":3,"max_distance":0.5,"refine":true}`
	if err := json.Unmarshal([]byte(blob), &req); err != nil {
		t.Fatal(err)
	}
	if req.Benchmark != "TPC-H" || req.DataSizeGB != 120 || req.K != 3 ||
		req.MaxDistance != 0.5 || !req.Refine {
		t.Fatalf("decoded %+v", req)
	}
}
