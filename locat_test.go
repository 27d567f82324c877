package locat

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fastOpts keep the public-API tests quick while exercising the whole
// pipeline.
func fastOpts() Options {
	return Options{
		Cluster:       "arm",
		Benchmark:     "TPC-H",
		DataSizeGB:    100,
		Seed:          3,
		NQCSA:         10,
		NIICP:         8,
		MaxIterations: 8,
		Quiet:         true,
	}
}

func TestTunePublicAPI(t *testing.T) {
	res, err := Tune(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestParams) != 38 {
		t.Fatalf("BestParams has %d entries; want 38", len(res.BestParams))
	}
	if _, ok := res.BestParams["spark.sql.shuffle.partitions"]; !ok {
		t.Fatal("missing shuffle.partitions in BestParams")
	}
	if res.TunedSeconds <= 0 || res.TunedSeconds >= res.DefaultSeconds {
		t.Fatalf("tuned %v vs default %v", res.TunedSeconds, res.DefaultSeconds)
	}
	if res.OverheadSeconds <= 0 || res.Runs == 0 {
		t.Fatal("missing overhead accounting")
	}
	if len(res.SensitiveQueries) == 0 || len(res.ImportantParams) == 0 {
		t.Fatal("missing analysis artifacts")
	}
	if res.Elapsed <= 0 {
		t.Fatal("missing elapsed time")
	}
	if len(res.Phases) == 0 {
		t.Fatal("missing phase timeline")
	}
	phases := map[string]Phase{}
	var phaseCluster float64
	for _, p := range res.Phases {
		phases[p.Name] = p
		phaseCluster += p.ClusterSeconds
	}
	for _, want := range []string{"phase1/sampling", "qcsa/reduce", "iicp/select", "phase2/search", "gp/hyper-resample", "final/select"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("phase timeline missing %q: %+v", want, res.Phases)
		}
	}
	// Every simulated second of tuning overhead is charged to some phase.
	if diff := phaseCluster - res.OverheadSeconds; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("phases account for %.3f cluster seconds; overhead is %.3f", phaseCluster, res.OverheadSeconds)
	}
}

func TestTuneDefaults(t *testing.T) {
	o := Options{NQCSA: 8, NIICP: 6, MaxIterations: 6, Benchmark: "Scan", Quiet: true}
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TunedSeconds <= 0 {
		t.Fatal("defaults did not tune")
	}
}

func TestTuneErrors(t *testing.T) {
	if _, err := Tune(Options{Cluster: "sparc"}); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if _, err := Tune(Options{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The name is checked before the backend opens: a recording one would
	// create its file.
	trace := filepath.Join(t.TempDir(), "x.trace.gz")
	if _, err := Tune(Options{Benchmark: "nope", Backend: "record=" + trace}); err == nil {
		t.Fatal("unknown benchmark accepted with a recording backend")
	}
	if _, err := os.Stat(trace); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unknown benchmark left %s behind (stat: %v)", trace, err)
	}
	if _, err := Tune(Options{DataSizeGB: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	// Such a size panicked in the session's base selection.
	for _, gb := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Tune(Options{DataSizeGB: gb}); err == nil {
			t.Fatalf("size %v accepted", gb)
		}
	}
}

func TestAblationToggles(t *testing.T) {
	o := fastOpts()
	o.DisableQCSA = true
	o.DisableIICP = true
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SensitiveQueries != nil {
		t.Fatal("QCSA artifact present despite DisableQCSA")
	}
	if res.ImportantParams != nil {
		t.Fatal("IICP artifact present despite DisableIICP")
	}
}

func TestScheduleOnline(t *testing.T) {
	o := fastOpts()
	sizes := []float64{100, 200, 300}
	o.Schedule = func(run int) float64 { return sizes[run%len(sizes)] }
	o.DataSizeGB = 200
	res, err := Tune(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TunedSeconds <= 0 {
		t.Fatal("online tuning failed")
	}
}

func TestInventories(t *testing.T) {
	if len(Benchmarks()) != 5 || len(Clusters()) != 2 {
		t.Fatal("inventories wrong")
	}
}

func TestCompareBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full baseline budgets")
	}
	o := Options{Benchmark: "Aggregation", DataSizeGB: 100, Seed: 2, Quiet: true}
	rs, err := CompareBaselines(o)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Tuneful", "DAC", "GBO-RL", "QTune"}
	if len(rs) != len(want) {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Tuner != want[i] {
			t.Fatalf("result %d = %q", i, r.Tuner)
		}
		if r.TunedSec <= 0 || r.OverheadSec <= 0 || r.Runs == 0 {
			t.Fatalf("%s: incomplete result %+v", r.Tuner, r)
		}
	}
}

func TestSparkConfExport(t *testing.T) {
	res, err := Tune(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := res.SparkConf()
	if len(out) == 0 {
		t.Fatal("empty spark conf")
	}
	for _, want := range []string{"spark.sql.shuffle.partitions", "spark.executor.memory"} {
		if !containsLine(out, want) {
			t.Fatalf("SparkConf missing %s:\n%s", want, out)
		}
	}
}

func containsLine(out, key string) bool {
	for _, line := range splitLines(out) {
		if len(line) >= len(key) && line[:len(key)] == key {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
