package service

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"locat/internal/conf"
	"locat/internal/core"
	"locat/internal/dagp"
	"locat/internal/sparksim"
)

// The two functions below are the warm-start prior assemblies as they stood
// before the service got one prior builder: Service.retrievePrior (the
// fingerprint bucket walk) and Recommender.neighborsPrior (the k-NN hits,
// nearest first), bodies unchanged apart from taking what they read off the
// service, job and recommender as arguments. They stay here as the oracle
// the one builder must reflect.DeepEqual.

func oracleRetrievePrior(store Store, fp Fingerprint, targetGB float64, space *conf.Space, maxPriorObs int) (*core.Prior, int) {
	fps := append([]Fingerprint{fp}, fp.Neighbors()...)
	var entries []Entry
	for _, fp := range fps {
		es, err := store.Get(fp.Key())
		if err != nil {
			continue
		}
		entries = append(entries, es...)
	}
	if len(entries) == 0 {
		return nil, 0
	}

	var obs []core.PriorObs
	var samples []dagp.Sample
	for _, e := range entries {
		for _, o := range e.Obs {
			if len(o.Params) != space.Dim() {
				continue // stored under a different parameter table
			}
			c := conf.Config(o.Params)
			obs = append(obs, core.PriorObs{
				Conf: c, DataGB: o.DataGB, Sec: o.Sec, QuerySecs: o.QuerySecs,
			})
			samples = append(samples, dagp.Sample{
				X: space.Encode(c), DataGB: o.DataGB, Sec: o.Sec,
			})
		}
	}
	if len(obs) == 0 {
		return nil, 0
	}
	prior := &core.Prior{}
	for _, i := range dagp.SelectTransfer(samples, targetGB, maxPriorObs) {
		prior.Obs = append(prior.Obs, obs[i])
	}

	// Newest entry wins for the analysis artifacts; same-bucket entries are
	// preferred over neighbors.
	sort.SliceStable(entries, func(a, b int) bool {
		sa, sb := entries[a].Fingerprint.SizeBucket == fp.SizeBucket,
			entries[b].Fingerprint.SizeBucket == fp.SizeBucket
		if sa != sb {
			return sa
		}
		return entries[a].CreatedUnix > entries[b].CreatedUnix
	})
	for _, e := range entries {
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
	return prior, len(prior.Obs)
}

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

// checkPriorsAgainstOracle asks a service over store for the warm-start prior
// of spec both ways — the bucket walk a plain job takes and the k-NN
// retrieval a refine or fallback job is seeded from — and requires each to
// equal its oracle exactly. It returns the two priors for the callers that
// assert on their shape.
func checkPriorsAgainstOracle(t *testing.T, store Store, spec JobSpec, maxPriorObs int) (walk, knn *core.Prior) {
	t.Helper()
	s := New(Config{Store: store, Workers: 1})
	defer s.Close()
	s.rec.maxPriorObs = maxPriorObs
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	cl, err := sparksim.ClusterByName(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	space := cl.Space()
	j := &job{id: "job-oracle", spec: spec, fp: NewFingerprint(spec)}

	walk, n := s.retrievePrior(j, space)
	want, wantN := oracleRetrievePrior(store, j.fp, spec.DataSizeGB, space, maxPriorObs)
	if !reflect.DeepEqual(walk, want) || n != wantN {
		t.Errorf("retrievePrior(%s %.0f GB, cap %d) = %d obs %+v\noracle %d obs %+v",
			spec.Benchmark, spec.DataSizeGB, maxPriorObs, n, walk, wantN, want)
	}

	// A radius no workload exceeds, so the retrieval returns every indexed
	// entry it is asked for and the order alone decides the prior.
	rec, knn, err := s.rec.Recommend(spec, RecommendOptions{K: 8, MaxDistance: 100})
	if err != nil {
		t.Fatal(err)
	}
	var used []Entry
	for _, nb := range rec.Neighbors {
		entries, err := store.Get(nb.Key)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if e.JobID == nb.JobID {
				used, found = append(used, e), true
				break
			}
		}
		if !found {
			t.Fatalf("neighbor %s/%s is not in the store", nb.Key, nb.JobID)
		}
	}
	if wantKNN := oracleNeighborsPrior(used, spec.DataSizeGB, space, maxPriorObs); !reflect.DeepEqual(knn, wantKNN) {
		t.Errorf("Recommend(%s %.0f GB, cap %d) prior = %+v\noracle %+v (over %d neighbors)",
			spec.Benchmark, spec.DataSizeGB, maxPriorObs, knn, wantKNN, len(used))
	}
	return walk, knn
}

// TestPriorMatchesOracleOnCommittedHistory runs both assemblies over the
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
			walk, knn := checkPriorsAgainstOracle(t, fs, spec, maxObs)
			if gb == 120 && (walk == nil || knn == nil || len(walk.Obs) == 0 || len(knn.Obs) == 0) {
				t.Errorf("120 GB sits in the fixture's bucket: want a prior both ways, got %v / %v", walk, knn)
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
		// Same bucket as the 100 GB target: an old complete entry, a newer one
		// with only Sensitive, the newest with only Important whose first name
		// no parameter table knows, tied on CreatedUnix with a later-stored entry
		// whose Important must lose the tie; the neighbors carry complete
		// artifacts that must lose to the same bucket.
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
				walk, _ := checkPriorsAgainstOracle(t, st, at(gb), maxObs)
				if gb == 100 {
					if maxObs == 10 && len(walk.Obs) != 10 {
						t.Errorf("32 usable observations under a cap of 10: prior holds %d", len(walk.Obs))
					}
					if !reflect.DeepEqual(walk.Sensitive, sens) || len(walk.Important) != len(imp) {
						t.Errorf("artifacts %v / %v: want the newest same-bucket entry that has each (%v, %d known names)",
							walk.Sensitive, walk.Important, sens, len(imp))
					}
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
		walk, knn := checkPriorsAgainstOracle(t, st, at(100), 48)
		if len(walk.Important) != len(imp) || len(knn.Important) != len(imp) {
			t.Errorf("Important = %v / %v, want job-a's %d indices", walk.Important, knn.Important, len(imp))
		}
	})

	t.Run("no usable observation", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		st := NewMemStore()
		st.Put(oracleEntry(rng, space, at(100), "job-a", 1000, 0, 4, sens, imp))
		st.Put(oracleEntry(rng, space, at(200), "job-b", 2000, 0, 0, sens, imp))
		walk, knn := checkPriorsAgainstOracle(t, st, at(100), 48)
		if walk != nil || knn != nil {
			t.Errorf("priors %+v / %+v from a store without one usable observation, want nil", walk, knn)
		}
		walk, knn = checkPriorsAgainstOracle(t, NewMemStore(), at(100), 48)
		if walk != nil || knn != nil {
			t.Errorf("priors %+v / %+v from an empty store, want nil", walk, knn)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(10); seed < 22; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := NewMemStore()
			for i, n := 0, 3+rng.Intn(8); i < n; i++ {
				spec := at([]float64{45, 64, 90, 100, 128, 140, 200, 260}[rng.Intn(8)])
				if rng.Intn(4) == 0 {
					spec.Cluster = "x86" // another fingerprint: the walk must not see it
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
				checkPriorsAgainstOracle(t, st, at(gb), []int{48, 9}[seed%2])
			}
		}
	})
}
