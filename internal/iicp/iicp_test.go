package iicp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"locat/internal/conf"
	"locat/internal/kpca"
	"locat/internal/sparksim"
	"locat/internal/stat"
	"locat/internal/workloads"
)

// collect returns n (config, latency) samples of the TPC-DS application at
// the given size.
func collect(t *testing.T, n int, dataGB float64, seed int64) (*conf.Space, []Sample) {
	t.Helper()
	cl := sparksim.ARM()
	sim := sparksim.New(cl, seed)
	space := cl.Space()
	app := workloads.TPCDS()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		c := space.Random(rng)
		out = append(out, Sample{Conf: c, Sec: sim.RunApp(app, c, dataGB).Sec})
	}
	return space, out
}

func TestAnalyzeErrors(t *testing.T) {
	space, samples := collect(t, 5, 100, 1)
	if _, err := Analyze(space, samples[:2], DefaultOptions()); err == nil {
		t.Fatal("too-few samples accepted")
	}
	bad := append([]Sample(nil), samples...)
	bad[0].Conf = bad[0].Conf[:5]
	if _, err := Analyze(space, bad, DefaultOptions()); err == nil {
		t.Fatal("short config accepted")
	}
}

func TestCPSReducesAndCPEExtractsFurther(t *testing.T) {
	space, samples := collect(t, 20, 100, 2)
	res, err := Analyze(space, samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != conf.NumParams {
		t.Fatalf("got %d scores", len(res.Scores))
	}
	// Figure 10 shape: CPS keeps a strict subset (≈2/3 of 38), CPE extracts
	// fewer still.
	if res.NumSelected() >= conf.NumParams || res.NumSelected() < 8 {
		t.Fatalf("CPS selected %d params; want a meaningful subset of 38", res.NumSelected())
	}
	if res.NumImportant() >= res.NumSelected() && res.NumSelected() > 4 {
		t.Fatalf("CPE (%d) did not reduce below CPS (%d)", res.NumImportant(), res.NumSelected())
	}
	if res.NumImportant() < 4 || res.NumImportant() > 20 {
		t.Fatalf("CPE extracted %d; want ≈8–16 (paper: 15 for TPC-DS)", res.NumImportant())
	}
	// All selected must clear the cutoff, all important must be selected.
	scoreOf := map[int]float64{}
	for _, s := range res.Scores {
		scoreOf[s.Index] = s.SCC
	}
	sel := map[int]bool{}
	for _, j := range res.Selected {
		if math.Abs(scoreOf[j]) < 0.2 {
			t.Fatalf("selected param %d has |SCC| %v < 0.2", j, scoreOf[j])
		}
		sel[j] = true
	}
	seen := map[int]bool{}
	for _, j := range res.Important {
		if !sel[j] {
			t.Fatalf("important param %d not CPS-selected", j)
		}
		if seen[j] {
			t.Fatalf("important param %d repeated", j)
		}
		seen[j] = true
	}
}

func TestShufflePartitionsTopRanked(t *testing.T) {
	// Table 3: spark.sql.shuffle.partitions ranks among the most important
	// parameters at every data size; memory/executor parameters populate
	// the top of the list. (With the paper's N_IICP = 20 the Spearman
	// estimates carry ±0.23 of sampling noise, so the membership check uses
	// a larger sample and the top eight.)
	space, samples := collect(t, 60, 100, 3)
	res, err := Analyze(space, samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopParams(8)
	found := false
	for _, n := range top {
		if n == "spark.sql.shuffle.partitions" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shuffle.partitions not in top-8: %v", top)
	}
	// The important set must include at least one memory-related and one
	// parallelism-related parameter.
	names := map[string]bool{}
	params := conf.Params()
	for _, j := range res.Important {
		names[params[j].Name] = true
	}
	mem := names["spark.executor.memory"] || names["spark.memory.offHeap.size"] ||
		names["spark.memory.fraction"] || names["spark.memory.storageFraction"] ||
		names["spark.executor.memoryOverhead"] || names["spark.memory.offHeap.enabled"]
	par := names["spark.sql.shuffle.partitions"] || names["spark.executor.instances"] ||
		names["spark.executor.cores"]
	if !mem || !par {
		t.Fatalf("important set misses memory (%v) or parallelism (%v): %v", mem, par, names)
	}
}

func TestImportantCountStabilizes(t *testing.T) {
	// Figure 9: the identified-important count flattens for N_IICP ≥ 20.
	space, samples := collect(t, 50, 100, 4)
	at := func(n int) int {
		res, err := Analyze(space, samples[:n], DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.NumImportant()
	}
	c20, c35, c50 := at(20), at(35), at(50)
	if d := c20 - c35; d < -5 || d > 5 {
		t.Fatalf("count unstable 20→35: %d vs %d", c20, c35)
	}
	if d := c35 - c50; d < -5 || d > 5 {
		t.Fatalf("count unstable 35→50: %d vs %d", c35, c50)
	}
}

func TestTopParamsBounds(t *testing.T) {
	space, samples := collect(t, 10, 100, 5)
	res, err := Analyze(space, samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TopParams(1000); len(got) != conf.NumParams {
		t.Fatalf("TopParams(1000) returned %d", len(got))
	}
	if got := res.TopParams(3); len(got) != 3 {
		t.Fatalf("TopParams(3) returned %d", len(got))
	}
}

func TestDefaultCutoffApplied(t *testing.T) {
	space, samples := collect(t, 20, 100, 6)
	res, err := Analyze(space, samples, Options{Kernel: DefaultOptions().Kernel})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSelected() == 0 {
		t.Fatal("zero selection under default cutoff")
	}
}

// synthetic returns n samples whose latency responds nonlinearly to four
// parameters, plus seeded noise; the other 34 parameters are inert.
func synthetic(n int, seed int64) (*conf.Space, []Sample) {
	space := sparksim.ARM().Space()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		c := space.Random(rng)
		u := space.Encode(c)
		p := u[conf.PSQLShufflePartitions]
		sec := 100 + 60*p*p + 40*math.Abs(u[conf.PExecutorMemory]-0.5) -
			30*u[conf.PExecutorCores] + 20*math.Sin(3*u[conf.PMemoryFraction]) + 5*rng.NormFloat64()
		out[i] = Sample{Conf: c, Sec: sec}
	}
	return space, out
}

// TestAnalyzeImportantPinned pins CPS's selection, CPE's kept-eigenvalue
// count and the important set on three seeded synthetic sample sets, so a
// change to CPE that claims the same numbers is held to them.
func TestAnalyzeImportantPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		seed      int64
		kernel    kpca.KernelKind
		selected  []int
		kept      int
		important []int
	}{
		{"gaussian/n20", 20, 12, kpca.Gaussian,
			[]int{25, 18, 1, 28, 22, 6, 4, 5, 26, 37, 8, 20, 27, 10, 11}, 12,
			[]int{25, 18, 1, 28, 22, 6, 4, 5, 26, 37, 8, 20}},
		{"gaussian/n30", 30, 13, kpca.Gaussian,
			[]int{25, 34, 4, 13, 35, 16, 36, 24, 21, 7, 30, 2, 32, 10}, 13,
			[]int{25, 34, 4, 13, 35, 16, 36, 24, 21, 7, 30, 2, 32}},
		{"perceptron/n20", 20, 17, kpca.Perceptron,
			[]int{5, 25, 28, 15, 6, 4, 32, 2, 1, 12, 19, 27, 36, 29, 13, 21, 26, 31, 37, 24}, 19,
			[]int{5, 25, 28, 15, 6, 4, 32, 2, 1, 12, 19, 27, 36, 29, 13, 21, 26, 31, 37}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space, samples := synthetic(tc.n, tc.seed)
			opts := DefaultOptions()
			opts.Kernel = kpca.Kernel{Kind: tc.kernel}
			res, err := Analyze(space, samples, opts)
			if err != nil {
				t.Fatal(err)
			}
			// CPE's count, refitted over the selected columns as Analyze fits them.
			sub := make([][]float64, len(samples))
			for i, s := range samples {
				u := space.Encode(s.Conf)
				for _, j := range res.Selected {
					sub[i] = append(sub[i], u[j])
				}
			}
			lambdas, err := kpca.Fit(sub, opts.Kernel, kpca.Options{MinEigenFrac: minEigenFrac})
			if err != nil {
				t.Fatal(err)
			}
			// Every score is the Spearman correlation of its column with
			// the latencies, each ranked afresh, bit for bit.
			times := make([]float64, len(samples))
			for i, s := range samples {
				times[i] = s.Sec
			}
			for _, sc := range res.Scores {
				col := make([]float64, len(samples))
				for i, s := range samples {
					col[i] = space.Encode(s.Conf)[sc.Index]
				}
				if want := stat.Pearson(stat.Ranks(col), stat.Ranks(times)); math.Float64bits(sc.SCC) != math.Float64bits(want) {
					t.Errorf("%s: SCC %v, want Spearman %v", sc.Name, sc.SCC, want)
				}
			}
			if !slices.Equal(res.Selected, tc.selected) || len(lambdas) != tc.kept || !slices.Equal(res.Important, tc.important) {
				t.Errorf("selected %v, kept %d, important %v; want %v, %d, %v",
					res.Selected, len(lambdas), res.Important, tc.selected, tc.kept, tc.important)
			}
		})
	}
}
