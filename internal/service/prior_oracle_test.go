package service

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/dagp"
	"locat/internal/sparksim"
)

// oracleNeighborsPrior is the warm-start prior assembly as it stood before
// the service got one prior builder (Recommender.neighborsPrior: the k-NN
// hits, nearest first), body unchanged apart from taking what it read off the
// recommender as arguments. It stays here as the frozen pin of the one
// retrieval left, which must reflect.DeepEqual it.

func oracleNeighborsPrior(used []Entry, targetGB float64, space *conf.Space, maxPriorObs int) *core.Prior {
	var obs []core.PriorObs
	var samples []dagp.Sample
	for _, e := range used {
		for _, o := range e.Obs {
			if len(o.Params) != space.Dim() {
				continue
			}
			c := conf.Config(o.Params)
			obs = append(obs, core.PriorObs{Conf: c, DataGB: o.DataGB, Sec: o.Sec, QuerySecs: o.QuerySecs})
			samples = append(samples, dagp.Sample{X: space.Encode(c), DataGB: o.DataGB, Sec: o.Sec})
		}
	}
	if len(obs) == 0 {
		return nil
	}
	prior := &core.Prior{}
	for _, i := range dagp.SelectTransfer(samples, targetGB, maxPriorObs) {
		prior.Obs = append(prior.Obs, obs[i])
	}
	// used arrives nearest-first; the closest workload's artifacts win.
	for _, e := range used {
		if prior.Sensitive == nil && len(e.Sensitive) > 0 {
			prior.Sensitive = append([]string(nil), e.Sensitive...)
		}
		if prior.Important == nil && len(e.Important) > 0 {
			for _, name := range e.Important {
				if _, idx, ok := conf.ParamByName(name); ok {
					prior.Important = append(prior.Important, idx)
				}
			}
		}
	}
	return prior
}

// checkPriorAgainstOracle asks a service over store for the warm-start prior
// of spec and requires it to equal the oracle over the neighbors it names,
// exactly. It returns the prior for the callers that assert on its shape.
func checkPriorAgainstOracle(t *testing.T, store Store, spec JobSpec, maxPriorObs int) *core.Prior {
	t.Helper()
	s := New(Config{Store: store, Workers: 1})
	defer s.Close()
	s.rec.maxPriorObs = maxPriorObs
	// A radius no workload exceeds, so the retrieval returns every indexed
	// entry it is asked for and the order alone decides the prior.
	s.rec.defaults = RecommendOptions{K: 8, MaxDistance: 100}.or(s.rec.defaults)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	cl, err := sparksim.ClusterByName(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	knn, from, err := s.rec.Prior(spec)
	if err != nil {
		t.Fatal(err)
	}
	used := entriesOf(t, store, from)
	if want := oracleNeighborsPrior(used, spec.DataSizeGB, cl.Space(), maxPriorObs); !reflect.DeepEqual(knn, want) {
		t.Errorf("Prior(%s %.0f GB, cap %d) = %+v\noracle %+v (over %d neighbors)",
			spec.Benchmark, spec.DataSizeGB, maxPriorObs, knn, want, len(used))
	}
	return knn
}

// entriesOf reads the history entries a provenance list names.
func entriesOf(t *testing.T, store Store, from []Neighbor) []Entry {
	t.Helper()
	var used []Entry
	for _, nb := range from {
		entries, err := store.Get(nb.Key)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(entries, func(e Entry) bool { return e.JobID == nb.JobID })
		if i < 0 {
			t.Fatalf("neighbor %s/%s is not in the store", nb.Key, nb.JobID)
		}
		used = append(used, entries[i])
	}
	return used
}

// TestPriorMatchesOracleOnCommittedHistory runs the retrieval over the
// committed history fixture (two quick TPC-H sessions, 100 and 140 GB).
func TestPriorMatchesOracleOnCommittedHistory(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("..", "..", "testdata", "history-seed")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range []float64{60, 100, 120, 200, 400} {
		for _, maxObs := range []int{48, 7} {
			spec := JobSpec{Benchmark: "TPC-H", DataSizeGB: gb}
			knn := checkPriorAgainstOracle(t, fs, spec, maxObs)
			if gb == 120 && (knn == nil || len(knn.Obs) == 0) {
				t.Errorf("120 GB sits in the fixture's bucket: want a prior, got %v", knn)
			}
		}
	}
}

// oracleEntry builds one history entry for the generated cases. nObs
// observations of the space's dimension are drawn from rng; wrongDim more are
// stored with a short parameter vector, the way an entry written under another
// parameter table would look.
func oracleEntry(rng *rand.Rand, space *conf.Space, spec JobSpec, jobID string, created int64, nObs, wrongDim int, sensitive, important []string) Entry {
	e := Entry{
		Fingerprint: NewFingerprint(spec),
		JobID:       jobID,
		CreatedUnix: created,
		TargetGB:    spec.DataSizeGB,
		TunedSec:    100 + 900*rng.Float64(),
		OverheadSec: 1000 + 9000*rng.Float64(),
		BestParams:  paramsToMap(space.Random(rng)),
		Sensitive:   sensitive,
		Important:   important,
	}
	for i := 0; i < nObs+wrongDim; i++ {
		o := Observation{
			Params: space.Random(rng),
			DataGB: spec.DataSizeGB * (0.8 + 0.4*rng.Float64()),
			Sec:    50 + 950*rng.Float64(),
		}
		if i%3 == 0 {
			o.QuerySecs = map[string]float64{"q1": o.Sec * 0.6, "q2": o.Sec * 0.4}
		}
		if i >= nObs {
			o.Params = o.Params[:5+i%7]
		}
		e.Obs = append(e.Obs, o)
	}
	return e
}

// TestPriorMatchesOracleOnGeneratedHistory covers what the committed fixture
// cannot: observations of the wrong dimension, entries with no artifacts,
// only Sensitive or only Important, equal CreatedUnix, an unknown parameter
// name in Important, more observations than MaxPriorObs, and stores from
// which no prior can be built at all.
func TestPriorMatchesOracleOnGeneratedHistory(t *testing.T) {
	space := sparksim.ARM().Space()
	params := conf.Params()
	at := func(gb float64) JobSpec {
		s := JobSpec{Benchmark: "TPC-H", DataSizeGB: gb}
		if err := s.normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	sens := []string{"q3", "q9", "q18"}
	imp := []string{params[2].Name, params[11].Name, params[30].Name}

	t.Run("artifacts", func(t *testing.T) {
		// Same bucket as the 100 GB target: a complete entry, one with only
		// Sensitive, one with only Important whose first name no parameter
		// table knows, tied on CreatedUnix with a later-stored entry; the
		// neighboring buckets carry complete artifacts.
		rng := rand.New(rand.NewSource(1))
		st := NewMemStore()
		for _, e := range []Entry{
			oracleEntry(rng, space, at(100), "job-a", 1000, 6, 2, []string{"q1"}, []string{params[0].Name}),
			oracleEntry(rng, space, at(110), "job-b", 2000, 5, 0, sens, nil),
			oracleEntry(rng, space, at(120), "job-c", 3000, 4, 1, nil, append([]string{"spark.no.such.knob"}, imp...)),
			oracleEntry(rng, space, at(105), "job-d", 3000, 3, 0, nil, []string{params[7].Name}),
			oracleEntry(rng, space, at(50), "job-e", 9000, 7, 0, []string{"q7"}, []string{params[5].Name}),
			oracleEntry(rng, space, at(200), "job-f", 9500, 7, 3, []string{"q8"}, []string{params[6].Name}),
		} {
			if err := st.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, gb := range []float64{100, 60, 180, 380} {
			for _, maxObs := range []int{48, 10, 1} {
				knn := checkPriorAgainstOracle(t, st, at(gb), maxObs)
				if gb == 100 && maxObs == 10 && len(knn.Obs) != 10 {
					t.Errorf("32 usable observations under a cap of 10: prior holds %d", len(knn.Obs))
				}
			}
		}
	})

	t.Run("only unknown important names", func(t *testing.T) {
		// The nearest and newest entry names nothing this build knows: its
		// Important resolves to nil and the next entry's must be taken.
		rng := rand.New(rand.NewSource(2))
		st := NewMemStore()
		st.Put(oracleEntry(rng, space, at(100), "job-a", 1000, 6, 0, nil, imp))
		st.Put(oracleEntry(rng, space, at(100), "job-b", 2000, 6, 0, nil, []string{"spark.gone", "spark.also.gone"}))
		knn := checkPriorAgainstOracle(t, st, at(100), 48)
		if len(knn.Important) != len(imp) {
			t.Errorf("Important = %v, want job-a's %d indices", knn.Important, len(imp))
		}
	})

	t.Run("no usable observation", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		st := NewMemStore()
		st.Put(oracleEntry(rng, space, at(100), "job-a", 1000, 0, 4, sens, imp))
		st.Put(oracleEntry(rng, space, at(200), "job-b", 2000, 0, 0, sens, imp))
		if knn := checkPriorAgainstOracle(t, st, at(100), 48); knn != nil {
			t.Errorf("prior %+v from a store without one usable observation, want nil", knn)
		}
		if knn := checkPriorAgainstOracle(t, NewMemStore(), at(100), 48); knn != nil {
			t.Errorf("prior %+v from an empty store, want nil", knn)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(10); seed < 22; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := NewMemStore()
			for i, n := 0, 3+rng.Intn(8); i < n; i++ {
				spec := at([]float64{45, 64, 90, 100, 128, 140, 200, 260}[rng.Intn(8)])
				if rng.Intn(4) == 0 {
					spec.Cluster = "x86" // another fingerprint, far but inside the radius
				}
				var s, im []string
				if rng.Intn(2) == 0 {
					s = []string{fmt.Sprintf("q%d", 1+rng.Intn(22))}
				}
				if rng.Intn(2) == 0 {
					im = []string{params[rng.Intn(len(params))].Name, "spark.unknown." + fmt.Sprint(i)}
				}
				e := oracleEntry(rng, space, spec, fmt.Sprintf("job-%02d", i), int64(1000+100*rng.Intn(4)), rng.Intn(12), rng.Intn(3), s, im)
				if err := st.Put(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, gb := range []float64{64, 100, 180} {
				checkPriorAgainstOracle(t, st, at(gb), []int{48, 9}[seed%2])
			}
		}
	})
}

// countingStore counts history reads by key. It takes no lock: the service
// under test has one worker, and the test reads the counts only after Result
// returned, which the worker's close of the job's done channel orders.
type countingStore struct {
	Store
	gets map[string]int
}

func (c *countingStore) Get(key string) ([]Entry, error) {
	c.gets[key]++
	return c.Store.Get(key)
}

// TestWarmStartReadsOnlyItsNeighbors is the case a bucket walk could not
// pass: with three full shards around the target (96 entries, 384
// observations), a warm start reads the shards of its K nearest entries and
// offers only their observations for transfer.
func TestWarmStartReadsOnlyItsNeighbors(t *testing.T) {
	space := sparksim.ARM().Space()
	rng := rand.New(rand.NewSource(4))
	mem := NewMemStore()
	for bucket := 6; bucket <= 8; bucket++ {
		lo := 0.72 * math.Exp2(float64(bucket)) // just above the bucket's lower edge, 2^(bucket-½)
		for i := 0; i < maxEntriesPerKey; i++ {
			spec := quickSpec(lo*(1+0.9*float64(i)/maxEntriesPerKey), 1)
			e := oracleEntry(rng, space, spec, fmt.Sprintf("job-%d-%02d", bucket, i), int64(1000+i), 4, 0, nil, nil)
			if e.Fingerprint.SizeBucket != bucket {
				t.Fatalf("%.1f GB landed in bucket %d, want %d", spec.DataSizeGB, e.Fingerprint.SizeBucket, bucket)
			}
			if err := mem.Put(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	store := &countingStore{Store: mem, gets: map[string]int{}}
	s := New(Config{Store: store, Workers: 1})
	defer s.Close()
	clear(store.gets) // the start-up index build read every shard

	res, err := submitAndWait(t, s, quickSpec(128, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(store.gets) == 0 || len(store.gets) > DefaultRecommendK {
		t.Errorf("the session read %d distinct shards %v, want between 1 and K = %d", len(store.gets), store.gets, DefaultRecommendK)
	}
	offered := 0
	for _, nb := range res.SeededFrom {
		offered += nb.Obs
		if store.gets[nb.Key] == 0 {
			t.Errorf("neighbor %s/%s was never read", nb.Key, nb.JobID)
		}
	}
	if n := len(res.SeededFrom); n == 0 || n > DefaultRecommendK || !res.WarmStarted || res.PriorObsUsed != offered {
		t.Errorf("warm=%v from %d neighbors with %d prior observations, want 1 to K = %d neighbors and exactly the %d observations they hold",
			res.WarmStarted, n, res.PriorObsUsed, DefaultRecommendK, offered)
	}
}
