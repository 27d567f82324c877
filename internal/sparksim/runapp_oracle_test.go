package sparksim

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"locat/internal/conf"
	"locat/internal/stat"
)

// oracleRunApp and oracleRunQuery are runApp and runQuery as they stood
// before the environment was hoisted: derived once per query.
func oracleRunApp(s *Simulator, rng *rand.Rand, app *Application, c conf.Config, dataGB float64) AppResult {
	runFactor := 1.0
	if s.runNoise > 0 {
		runFactor = math.Exp(rng.NormFloat64() * s.runNoise)
	}
	out := AppResult{Queries: make([]QueryResult, 0, len(app.Queries))}
	for _, q := range app.Queries {
		r := oracleRunQuery(s, rng, q, c, dataGB)
		r.Sec *= runFactor
		r.GCSec *= runFactor
		out.Sec += r.Sec
		out.GCSec += r.GCSec
		out.Queries = append(out.Queries, r)
	}
	return out
}

func oracleRunQuery(s *Simulator, rng *rand.Rand, q Query, c conf.Config, dataGB float64) QueryResult {
	e := deriveEnv(s.cluster, c)
	r := simulateQuery(&e, &q, c, dataGB, nil)
	if s.noise > 0 {
		f := math.Exp(rng.NormFloat64() * s.noise)
		r.Sec *= f
		r.GCSec *= f
	}
	return r
}

func aggQuery() Query {
	return Query{
		Name: "agg", Class: Aggregation, InputFrac: 0.7, ShuffleFrac: 0.3,
		Stages: 4, CPUWeight: 1.8, Skew: 0.3, FixedSec: 1,
	}
}

// One environment per run gives the results one per query gave, bit for bit,
// on a stdlib source: the real suites live in internal/workloads, which
// imports this package, so the applications here are built from the test
// queries (benchmark/'s digests and locat-bench's pins cover the suites).
func TestRunAppMatchesPerQueryEnv(t *testing.T) {
	big := &Application{Name: "hundred"}
	for i := 0; i < 25; i++ {
		for _, q := range []Query{scanQuery(), joinQuery(), dimJoinQuery(), aggQuery()} {
			q.Name += strconv.Itoa(i)
			q.InputFrac *= 1 - 0.01*float64(i)
			big.Queries = append(big.Queries, q)
		}
	}
	apps := []*Application{
		testApp(),
		{Name: "join", Queries: []Query{joinQuery()}},
		{Name: "agg", Queries: []Query{aggQuery()}},
		big,
	}
	const seed = 29
	fresh := func(idx uint64) *rand.Rand { return rand.New(rand.NewSource(stat.SplitSeed(seed, idx))) }
	for _, cl := range []*Cluster{ARM(), X86()} {
		space := cl.Space()
		pick := rand.New(rand.NewSource(17))
		s := New(cl, seed)
		idx := uint64(0)
		for i := 0; i < 40; i++ {
			c := space.Random(pick)
			for _, gb := range []float64{100, 300, 1000} {
				for _, app := range apps {
					want := oracleRunApp(s, fresh(idx), app, c, gb)
					if got := s.RunAppAt(idx, app, c, gb, nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s at %v GB, configuration %d: RunAppAt differs from the per-query-environment run", cl.Name, app.Name, gb, i)
					}
					idx++
				}
			}
		}
	}
}
