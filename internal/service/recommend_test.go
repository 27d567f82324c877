package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"locat/internal/obs"
	"locat/internal/service/retrieve"
	"locat/internal/sparksim"
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
	s.cfg.Metrics.WritePrometheus(&buf)
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

// storeItems is what the index must hold over the store: one item per stored
// entry, featurized from the whole entry.
func storeItems(t *testing.T, s Store) []retrieve.Item {
	t.Helper()
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	ix := retrieve.NewIndex()
	for _, k := range keys {
		entries, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if it, ok := indexItem(e, len(e.Obs)); ok {
				ix.Upsert(it)
			}
		}
	}
	return ix.Items()
}

// rebuiltItems is what a start-up without an index file builds over the
// shards in dir: a recommender over a copy of them.
func rebuiltItems(t *testing.T, dir string) []retrieve.Item {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(cp)
	if err != nil {
		t.Fatal(err)
	}
	return NewRecommender(fs, t.Logf).ix.Items()
}

// schema2Index is an index file as the schema-2 code wrote it over the
// history of bucketEntry("seed", 1000, b) for b = 5, 6, 7: the start-up
// snapshot, the upsert of bucketEntry("added", 2000, 5), and the tombstone a
// retrieval logged when it found bucket 7's shard missing.
const schema2Index = `{"schema":2}
{"id":"arm_TPC-H_b5_qid/seed@1000","key":"arm_TPC-H_b5_qid","vec":[0,0.75,1.660964047443681,0.34375,0.36363636363636365,0.11363636363636363,0.14132030536704845,0.13778905134293434,0.15227272727272725,0.28584666852931423,0.02500477091469949,1,1,1,0.140625]}
{"id":"arm_TPC-H_b6_qid/seed@1000","key":"arm_TPC-H_b6_qid","vec":[0,0.75,1.660964047443681,0.34375,0.36363636363636365,0.11363636363636363,0.14132030536704845,0.13778905134293434,0.15227272727272725,0.28584666852931423,0.02500477091469949,1,1,1,0.140625]}
{"id":"arm_TPC-H_b7_qid/seed@1000","key":"arm_TPC-H_b7_qid","vec":[0,0.75,1.660964047443681,0.34375,0.36363636363636365,0.11363636363636363,0.14132030536704845,0.13778905134293434,0.15227272727272725,0.28584666852931423,0.02500477091469949,1,1,1,0.140625]}
{"id":"arm_TPC-H_b5_qid/added@2000","key":"arm_TPC-H_b5_qid","vec":[0,0.75,1.660964047443681,0.34375,0.36363636363636365,0.11363636363636363,0.14132030536704845,0.13778905134293434,0.15227272727272725,0.28584666852931423,0.02500477091469949,1,1,1,0.140625]}
{"id":"arm_TPC-H_b7_qid/seed@1000","del":true}
`

// TestRecommenderRestartMatchesRebuild: the index file is the start-up
// snapshot and nothing else. From construction on, Add, Sync and Recommend
// leave it as it is while the live index follows the store, and every restart
// over it builds the index a start-up without it builds — below and across
// the per-key cap, after a shard vanished under a running recommender or
// while none ran, and after key eviction. A file the schema-2 code wrote, log
// lines and tombstone included, loads empty and is rebuilt.
func TestRecommenderRestartMatchesRebuild(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := fs.IndexPath()
	var (
		rc       *Recommender
		snapshot []byte
		written  os.FileInfo
	)
	inStep := func(when string) {
		t.Helper()
		if got, want := rc.ix.Items(), storeItems(t, fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the recommender holds %d items, the store %d entries:\n%+v\nwant\n%+v", when, len(got), len(want), got, want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snapshot) || !os.SameFile(fi, written) || !fi.ModTime().Equal(written.ModTime()) {
			t.Fatalf("%s: the index file changed after start-up", when)
		}
	}
	restart := func(when string) {
		t.Helper()
		rc = NewRecommender(fs, t.Logf)
		if got, want := rc.ix.Items(), rebuiltItems(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a restart holds\n%+v\na start-up without the index file\n%+v", when, got, want)
		}
		if snapshot, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if written, err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
		inStep(when)
	}
	put := func(e Entry) {
		t.Helper()
		if err := fs.Put(e); err != nil {
			t.Fatal(err)
		}
		rc.Add(e)
	}
	key := func(bucket int) string { return bucketEntry("", 0, bucket).Fingerprint.Key() }
	recommend := func() {
		t.Helper()
		// Every entry here is within the radius: K past their count
		// resolves every one of them against the store.
		if _, err := rc.Recommend(quickSpec(100, 1), RecommendOptions{K: 100}); err != nil {
			t.Fatal(err)
		}
	}

	for b := 5; b < 8; b++ {
		if err := fs.Put(bucketEntry("seed", 1000, b)); err != nil {
			t.Fatal(err)
		}
	}
	restart("start-up over three keys")

	for i := 0; i < 3; i++ {
		put(bucketEntry("added", int64(2000+i), 5))
		inStep("after an add")
	}
	rc.Sync(key(5))
	inStep("after a sync")
	recommend()
	inStep("after a recommendation")
	restart("restart after adds")

	for i := 0; i < maxEntriesPerKey+5; i++ {
		put(bucketEntry(fmt.Sprintf("capped-%02d", i), int64(3000+i), 7))
		inStep(fmt.Sprintf("put %d under one key", i))
	}
	restart("restart across the cap")

	if err := os.Remove(filepath.Join(dir, key(7)+".json")); err != nil {
		t.Fatal(err)
	}
	recommend()
	inStep("after a vanished shard was found stale")
	restart("restart after lazy compaction")

	if err := os.Remove(filepath.Join(dir, key(6)+".json")); err != nil {
		t.Fatal(err)
	}
	restart("restart after a shard was deleted offline")

	put(bucketEntry("later", 4000, 8))
	put(bucketEntry("later", 4001, 9))
	inStep("after adds under two new keys")
	fs.SetMaxKeys(2)
	if keys, _ := fs.Keys(); !reflect.DeepEqual(keys, []string{key(8), key(9)}) {
		t.Fatalf("keys after SetMaxKeys(2) = %v, want bucket 5 evicted", keys)
	}
	rc.Sync(key(5))
	inStep("after an evicted key was synced")
	restart("restart after eviction")

	t.Run("schema-2 file", func(t *testing.T) {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Bucket 7's shard is back: the tombstone must not keep it out.
		for _, e := range []Entry{bucketEntry("seed", 1000, 5), bucketEntry("seed", 1000, 6),
			bucketEntry("seed", 1000, 7), bucketEntry("added", 2000, 5)} {
			if err := fs.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(fs.IndexPath(), []byte(schema2Index), 0o644); err != nil {
			t.Fatal(err)
		}
		if n := retrieve.Load(fs.IndexPath()).Len(); n != 0 {
			t.Fatalf("a schema-2 file loads %d items, want none", n)
		}
		got, want := NewRecommender(fs, t.Logf).ix.Items(), rebuiltItems(t, dir)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, storeItems(t, fs)) {
			t.Fatalf("over a schema-2 file the recommender holds\n%+v\nwithout it\n%+v", got, want)
		}
	})
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

// readCounter is a FileStore that counts its reads: whole entries (Get) and
// heads.
type readCounter struct {
	*FileStore
	gets, headReads int
}

func (c *readCounter) Get(key string) ([]Entry, error) {
	c.gets++
	return c.FileStore.Get(key)
}

func (c *readCounter) heads(key string) ([]Entry, []int, error) {
	c.headReads++
	return c.FileStore.heads(key)
}

// TestRecommendReadsNoObservation: a recommendation reads its neighbors'
// heads and never Get, a warm-start prior reads whole entries, and over a
// FileStore both equal what they are over a MemStore of the same entries,
// where every read is whole — observation counts included.
func TestRecommendReadsNoObservation(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files, mem := &readCounter{FileStore: fs}, NewMemStore()
	space := sparksim.ARM().Space()
	rng := rand.New(rand.NewSource(3))
	for i, gb := range []float64{80, 100, 100, 130, 140, 260} {
		spec := JobSpec{Benchmark: "TPC-H", DataSizeGB: gb}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		e := oracleEntry(rng, space, spec, fmt.Sprintf("job-%06d", i), int64(1000+i), 4+3*i, i%2, []string{"q3"}, []string{"spark.executor.cores"})
		for _, s := range []Store{files, mem} {
			if err := s.Put(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	rc, memRC := NewRecommender(files, t.Logf), NewRecommender(mem, t.Logf)
	spec := quickSpec(110, 1)

	files.gets, files.headReads = 0, 0
	rec, err := rc.Recommend(spec, RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if files.gets != 0 || files.headReads == 0 {
		t.Fatalf("Recommend made %d Get calls and %d head reads, want none and some", files.gets, files.headReads)
	}
	want, err := memRC.Recommend(spec, RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "hit" || len(rec.Neighbors) != DefaultRecommendK || !reflect.DeepEqual(rec, want) {
		t.Fatalf("over a FileStore:\n%+v\nover a MemStore:\n%+v", rec, want)
	}
	for _, n := range rec.Neighbors {
		if n.Obs == 0 {
			t.Fatalf("neighbor %s counts no observation", n.JobID)
		}
	}

	files.gets, files.headReads = 0, 0
	prior, seeded, err := rc.Prior(spec)
	if err != nil {
		t.Fatal(err)
	}
	if files.gets == 0 || files.headReads != 0 {
		t.Fatalf("Prior made %d Get calls and %d head reads, want some and none", files.gets, files.headReads)
	}
	wantPrior, wantSeeded, err := memRC.Prior(spec)
	if err != nil {
		t.Fatal(err)
	}
	if prior == nil || len(prior.Obs) == 0 || prior.Sensitive == nil || prior.Important == nil ||
		!reflect.DeepEqual(prior, wantPrior) || !reflect.DeepEqual(seeded, wantSeeded) {
		t.Fatalf("prior over a FileStore:\n%+v\nover a MemStore:\n%+v", prior, wantPrior)
	}
}
