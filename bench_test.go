// Benchmarks: one target per figure and table of the paper's evaluation
// (Section 5), plus ablation benches for three of LOCAT's design choices
// (QCSA's CV rule, EI-MCMC, DAGP). Each benchmark regenerates the corresponding experiment on the
// simulated clusters in the experiments package's Quick mode; run
//
//	go run ./cmd/locat-bench -all
//
// for the full-budget rows recorded in EXPERIMENTS.md.
package locat

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"locat/internal/bo"
	"locat/internal/conf"
	"locat/internal/experiments"
	"locat/internal/gp"
	"locat/internal/kpca"
	"locat/internal/mat"
	"locat/internal/qcsa"
	"locat/internal/runner"
	"locat/internal/service"
	"locat/internal/sparksim"
	"locat/internal/stat"
	"locat/internal/workloads"
)

// runExperiment executes one registered experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	driver, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSessionBackend(int64(i+1), true, "")
		if err != nil {
			b.Fatal(err)
		}
		tables, err := driver(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

// BenchmarkFig02MotivationOverhead regenerates Figure 2: the hours Tuneful,
// DAC, GBO-RL and QTune need to tune TPC-DS as the input grows.
func BenchmarkFig02MotivationOverhead(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig06KernelComparison regenerates Figure 6: the S.D. of execution
// times under the parameters selected by each KPCA kernel.
func BenchmarkFig06KernelComparison(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig07NQCSA regenerates Figure 7: CV convergence in the QCSA
// sample count (the N_QCSA = 30 calibration).
func BenchmarkFig07NQCSA(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig08QueryCV regenerates Figure 8: the per-query CV of TPC-DS and
// the CSQ/CIQ classification (23 of 104 kept in the paper).
func BenchmarkFig08QueryCV(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig09NIICP regenerates Figure 9: important-parameter count versus
// N_IICP (the N_IICP = 20 calibration).
func BenchmarkFig09NIICP(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10CPSCPE regenerates Figure 10: parameter counts through
// CPS and CPE.
func BenchmarkFig10CPSCPE(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable3TopParams regenerates Table 3: the top-5 important
// parameters of TPC-DS at 100 GB / 500 GB / 1 TB.
func BenchmarkTable3TopParams(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig11OptTimeARM regenerates Figure 11: optimization-time
// reduction over the four SOTA tuners on the ARM cluster.
func BenchmarkFig11OptTimeARM(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12OptTimeX86 regenerates Figure 12: the same on x86.
func BenchmarkFig12OptTimeX86(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13SpeedupARM regenerates Figure 13: speedups of LOCAT-tuned
// over SOTA-tuned configurations across program-input pairs on ARM.
func BenchmarkFig13SpeedupARM(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14SpeedupX86 regenerates Figure 14: the same on x86.
func BenchmarkFig14SpeedupX86(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15APvsIP regenerates Figure 15: tuning all 38 parameters
// versus the IICP-selected important ones.
func BenchmarkFig15APvsIP(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16ModelMSE regenerates Figure 16: performance-model accuracy
// of GBRT, SVR, LinearR, LR and KNNAR.
func BenchmarkFig16ModelMSE(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17IICPvsGBRT regenerates Figure 17: parameter-importance
// quality of IICP versus GBRT feature importance.
func BenchmarkFig17IICPvsGBRT(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18CSQCIQ regenerates Figure 18: CSQ/CIQ execution-time split
// of each tuner's final configuration.
func BenchmarkFig18CSQCIQ(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig19GCTime regenerates Figure 19: JVM GC time under each
// tuner's final configuration.
func BenchmarkFig19GCTime(b *testing.B) { runExperiment(b, "fig19") }

// BenchmarkFig20OverheadGrowth regenerates Figure 20: tuning overhead versus
// input data size.
func BenchmarkFig20OverheadGrowth(b *testing.B) { runExperiment(b, "fig20") }

// BenchmarkFig21Hybrid regenerates Figure 21: QCSA and IICP grafted onto the
// SOTA tuners.
func BenchmarkFig21Hybrid(b *testing.B) { runExperiment(b, "fig21") }

// --- Ablation benches ---

// BenchmarkAblationCVRule compares QCSA's relative three-partition rule
// against a fixed absolute CV threshold across two benchmarks whose CV
// ranges differ widely; the reported metrics are the kept-query counts.
func BenchmarkAblationCVRule(b *testing.B) {
	cl := sparksim.ARM()
	apps := []*sparksim.Application{workloads.TPCDS(), workloads.TPCH()}
	var relKept, absKept int
	for i := 0; i < b.N; i++ {
		sim := sparksim.New(cl, int64(i+1))
		space := cl.Space()
		rng := newBenchRng(int64(i + 1))
		relKept, absKept = 0, 0
		for _, app := range apps {
			runs := make([]sparksim.AppResult, 0, 12)
			for j := 0; j < 12; j++ {
				runs = append(runs, sim.RunApp(app, space.Random(rng), 100))
			}
			res, err := qcsa.Analyze(app, runs)
			if err != nil {
				b.Fatal(err)
			}
			relKept += len(res.Sensitive)
			for _, q := range res.Queries {
				if q.CV >= 1.0 { // absolute threshold variant
					absKept++
				}
			}
		}
	}
	b.ReportMetric(float64(relKept), "kept-relative")
	b.ReportMetric(float64(absKept), "kept-absolute")
}

// BenchmarkAblationEIMCMC compares plain EI (one hyperparameter sample)
// against EI-MCMC marginalization on a smooth synthetic objective; the
// reported metric is each variant's best objective after 20 evaluations.
func BenchmarkAblationEIMCMC(b *testing.B) {
	obj := func(x, ctx []float64) float64 {
		d0 := x[0] - 0.3
		d1 := x[1] - 0.7
		return d0*d0 + d1*d1
	}
	var plain, mcmc float64
	for i := 0; i < b.N; i++ {
		o := bo.Options{InitPoints: 3, MinIter: 10, MaxIter: 20, MCMCSamples: 1, Candidates: 512, Seed: int64(i + 1)}
		plain = bo.Minimize(bo.Problem{Dim: 2, Eval: obj}, o).BestY
		o.MCMCSamples = 6
		mcmc = bo.Minimize(bo.Problem{Dim: 2, Eval: obj}, o).BestY
	}
	b.ReportMetric(plain, "bestY-EI")
	b.ReportMetric(mcmc, "bestY-EI-MCMC")
}

// BenchmarkAblationDAGP compares datasize-aware tuning against a
// configuration-only GP under a changing-size schedule (the CherryPick
// limitation the paper highlights); the reported metrics are the tuned
// latencies at the target size.
func BenchmarkAblationDAGP(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		sizes := []float64{100, 200, 300}
		sched := func(run int) float64 { return sizes[run%len(sizes)] }
		o := Options{
			Benchmark: "TPC-H", DataSizeGB: 300, Schedule: sched,
			Seed: int64(i + 1), NQCSA: 10, NIICP: 8, MaxIterations: 8,
			Quiet: true,
		}
		r1, err := Tune(o)
		if err != nil {
			b.Fatal(err)
		}
		o.DisableDAGP = true
		r2, err := Tune(o)
		if err != nil {
			b.Fatal(err)
		}
		with, without = r1.TunedSeconds, r2.TunedSeconds
	}
	b.ReportMetric(with, "tuned-DAGP")
	b.ReportMetric(without, "tuned-confonly")
}

// --- Incremental surrogate benches ---
//
// One BO iteration must update the surrogate with the newest observation.
// BenchmarkSurrogateRefit measures the old path — refitting the GP from
// scratch, an O(n³) Cholesky — and BenchmarkSurrogateIncremental the new
// one: gp.Append's O(n²) rank-1 border extension of the cached factor. The
// incremental figure includes a full Clone of the base model per iteration
// (so each append starts from exactly n points), which overstates the real
// in-loop cost; the speedup below is therefore a floor. n is the training-
// set size — warm-started service sessions land at 50+ immediately, and
// long baseline budgets push past 150.

// surrogateTrainingSet draws n observations of a smooth objective over the
// unit cube with a data-size context appended — the DAGP input shape.
func surrogateTrainingSet(n, dim int) ([][]float64, []float64) {
	rng := newBenchRng(42)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		var s float64
		for j := range x {
			x[j] = rng.Float64()
			s += math.Sin(3 * x[j] * float64(j+1))
		}
		xs[i] = x
		ys[i] = s + rng.NormFloat64()*0.05
	}
	return xs, ys
}

// surrogateSizes are the training-set scales of the per-iteration cost
// comparison (ISSUE 2 acceptance: ≥3× at n=300).
var surrogateSizes = []int{50, 150, 300}

func BenchmarkSurrogateRefit(b *testing.B) {
	for _, n := range surrogateSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs, ys := surrogateTrainingSet(n, 9)
			h := gp.DefaultHyper()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gp.Fit(xs, ys, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSurrogateIncremental(b *testing.B) {
	for _, n := range surrogateSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs, ys := surrogateTrainingSet(n, 9)
			base, err := gp.Fit(xs[:n-1], ys[:n-1], gp.DefaultHyper())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := base.Clone()
				if err := g.Append(xs[n-1], ys[n-1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Batched surrogate math and parallel sampling benches (ISSUE 3) ---

// BenchmarkPredictBatch compares the two ways of scoring an EI candidate
// pool (512 points) against an n=300 GP: the old per-candidate Predict loop
// (two fresh vectors per candidate) versus one PredictBatch call that
// assembles the cross-kernel matrix once and reuses a workspace across
// iterations. The acceptance criterion is the allocs/op column: the batched
// path must cut it by ≥5×.
func BenchmarkPredictBatch(b *testing.B) {
	xs, ys := surrogateTrainingSet(300, 9)
	g, err := gp.Fit(xs, ys, gp.DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	cands := benchPoints(512, 9)
	b.Run("PerCandidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				g.Predict(c)
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		var ws gp.PredictWorkspace
		g.PredictBatch(cands, &ws) // warm the workspace buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.PredictBatch(cands, &ws)
		}
	})
}

// benchPoints draws m candidate points uniformly from the d-dimensional unit
// cube.
func benchPoints(m, d int) [][]float64 {
	rng := newBenchRng(7)
	pts := make([][]float64, m)
	for i := range pts {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		pts[i] = x
	}
	return pts
}

// BenchmarkSolveLowerBatch measures 576 forward substitutions against an
// n×n factor, one model's share of a full EI scoring (the EI round,
// BenchmarkProposeEI in internal/bo, solves only the candidates its bound
// keeps): one row at a time (SolveLowerVecInto, the pre-batch loop) and four
// rows per sweep of L (SolveLowerBatch). Both are in place and allocate
// nothing.
func BenchmarkSolveLowerBatch(b *testing.B) {
	for _, n := range []int{60, 128} {
		rng := newBenchRng(9)
		a := mat.NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := math.Exp(-2 * math.Abs(float64(i-j)) / float64(n))
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		a.AddDiag(0.01)
		chol, err := mat.NewCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		src := make([]float64, 576*n)
		for i := range src {
			src[i] = rng.Float64()
		}
		rows := make([]float64, len(src))
		b.Run(fmt.Sprintf("PerRow/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(rows, src)
				for r := 0; r < len(rows); r += n {
					chol.SolveLowerVecInto(rows[r:r+n], rows[r:r+n])
				}
			}
		})
		b.Run(fmt.Sprintf("Batched/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(rows, src)
				chol.SolveLowerBatch(rows)
			}
		})
	}
}

// --- Amortized hyperparameter inference benches (ISSUE 5) ---

// BenchmarkSampleHyper measures one full hyperparameter resample — the
// dominant training-side cost of the surrogate: 6 posterior samples (the
// EI-MCMC marginalization width) at each training-set scale.
//
//   - Serial, the reference path (one slice-sampling chain whose every
//     posterior evaluation runs a fresh gp.Fit: O(n²·d) kernel assembly +
//     freshly allocated O(n³) Cholesky), is the benchmark of the same name
//     in internal/gp, where the reference sampler lives as a test helper.
//   - Amortized is the production path end to end: build the distance cache
//     (gp.NewTrainSet), then run 6 independent chains over it on the worker
//     pool — each slice step an allocation-free in-place refit. The
//     allocs/op column collapses from thousands to the fixed setup cost; on
//     a multicore box the chains also run concurrently (this is the row the
//     ≥5× acceptance criterion reads; on a single-core box the win is the
//     amortization alone).
//   - Workers1 pins the chain pool to one worker: the pure amortization
//     win, independent of core count.
func BenchmarkSampleHyper(b *testing.B) {
	const samples = 6
	for _, n := range surrogateSizes {
		xs, ys := surrogateTrainingSet(n, 9)
		b.Run(fmt.Sprintf("Amortized/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts, err := gp.NewTrainSet(xs, ys, 0)
				if err != nil {
					b.Fatal(err)
				}
				if got := ts.SampleHyper(samples, newBenchRng(17), 0); len(got) != samples {
					b.Fatal("short sample")
				}
			}
		})
		b.Run(fmt.Sprintf("Workers1/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts, err := gp.NewTrainSet(xs, ys, 1)
				if err != nil {
					b.Fatal(err)
				}
				if got := ts.SampleHyper(samples, newBenchRng(17), 1); len(got) != samples {
					b.Fatal("short sample")
				}
			}
		})
	}
}

// BenchmarkKPCAFit measures the CPE hot path: a full kernel-PCA fit over an
// IICP-scale sample matrix (parallel Gram assembly, in-place centering, QL
// eigensolver), plus the eigensolver in isolation — implicit-shift QL; the
// cyclic Jacobi reference it replaced is the EigenJacobi row of the
// benchmark of the same name in internal/mat.
func BenchmarkKPCAFit(b *testing.B) {
	rng := newBenchRng(5)
	n, d := 160, 38
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
	}
	b.Run("Fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kpca.Fit(xs, kpca.Kernel{Kind: kpca.Gaussian}, kpca.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The Gram matrix the eigensolvers factor.
	kern := kpca.Kernel{Kind: kpca.Gaussian}
	gram := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kern.Eval(xs[i], xs[j])
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	b.Run("EigenQL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mat.SymEigen(gram); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelSampling measures a phase-1-shaped batch — 16 independent
// full TPC-DS executions — through sparksim.RunBatch at one worker versus
// all cores. Per-run noise streams make the two rows produce identical
// results; the delta is pure wall-clock.
func BenchmarkParallelSampling(b *testing.B) {
	cl := sparksim.ARM()
	app := workloads.TPCDS()
	space := cl.Space()
	rng := newBenchRng(11)
	cs := make([]conf.Config, 16)
	for i := range cs {
		cs[i] = space.Random(rng)
	}
	gb := func(int) float64 { return 300 }
	// 8 slots rather than GOMAXPROCS so the row means the same thing on any
	// machine; on a single-core box it measures pure pool overhead (results
	// are identical either way).
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sim := sparksim.New(cl, 1)
			for i := 0; i < b.N; i++ {
				if _, done := runner.RunBatch(runner.NewSim(sim), app, cs, gb, workers, nil); done != len(cs) {
					b.Fatal("incomplete batch")
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: full
// application executions per second — the substrate cost every tuner pays.
// The short applications are where a run's fixed costs (seeding its noise
// stream, deriving the environment) show.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cl := sparksim.ARM()
	c := cl.Space().Default()
	for _, app := range []*sparksim.Application{workloads.TPCDS(), workloads.TPCH(), workloads.HiBenchJoin()} {
		b.Run(app.Name, func(b *testing.B) {
			sim := sparksim.New(cl, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.RunApp(app, c, 300)
			}
		})
	}
}

// BenchmarkCVConvergence measures the QCSA statistic itself: the cost of a
// full 104-query CV analysis over 30 runs.
func BenchmarkCVConvergence(b *testing.B) {
	cl := sparksim.ARM()
	sim := sparksim.New(cl, 1)
	space := cl.Space()
	app := workloads.TPCDS()
	rng := newBenchRng(9)
	runs := make([]sparksim.AppResult, 0, 30)
	for j := 0; j < 30; j++ {
		runs = append(runs, sim.RunApp(app, space.Random(rng), 100))
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := qcsa.Analyze(app, runs)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanCV()
	}
	_ = stat.CV // keep the import honest if the metric below changes
	b.ReportMetric(mean, "meanCV")
}

// historyEntry is a finished session the size benchmark/serve.go seeds its
// store with: 16 observations of 38 parameters and 100 per-query latencies.
// Key i of a store is one cluster, benchmark, technique set and size bucket.
func historyEntry(key int) service.Entry {
	e := service.Entry{
		Fingerprint: service.Fingerprint{
			Cluster: Clusters()[key%2], Benchmark: Benchmarks()[key/2%5],
			Techniques: []string{"qid", "qi"}[key/10%2], SizeBucket: key / 20,
		},
		CreatedUnix: 1_600_000_000, TargetGB: 128, TunedSec: 321.5, OverheadSec: 9876.5,
		BestParams: map[string]float64{}, Sensitive: []string{"q3", "q7"},
	}
	for _, p := range conf.Params() {
		e.BestParams[p.Name] = 4
	}
	for i := 0; i < 16; i++ {
		o := service.Observation{Params: make([]float64, len(conf.Params())), DataGB: 128, Sec: 400 + float64(i), QuerySecs: map[string]float64{}}
		for q := 0; q < 100; q++ {
			o.QuerySecs[fmt.Sprintf("q%d", q+1)] = 1.25 * float64(q+i+1)
		}
		e.Obs = append(e.Obs, o)
	}
	return e
}

// historyEntries is one session per key; session stamps a copy as the
// serial-th session written, later than every one before it.
func historyEntries(keys int) []service.Entry {
	out := make([]service.Entry, keys)
	for k := range out {
		out[k] = historyEntry(k)
	}
	return out
}

func session(entries []service.Entry, serial int) service.Entry {
	e := entries[serial%len(entries)]
	e.JobID = fmt.Sprintf("job-%06d", serial)
	e.CreatedUnix += int64(serial)
	return e
}

// historyStore fills a fresh FileStore with three sessions under each key
// and sets the key cap, as a running service does.
func historyStore(b *testing.B, entries []service.Entry) *service.FileStore {
	fs, err := service.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3*len(entries); i++ {
		if err := fs.Put(session(entries, i)); err != nil {
			b.Fatal(err)
		}
	}
	fs.SetMaxKeys(2 * len(entries))
	return fs
}

// historyAppends is how many sessions a benchmark adds under one key before
// it starts over on a fresh store: with the three seeded it stays below the
// 32-entry cap, where a write replaces the shard instead of appending a line.
const historyAppends = 24

// BenchmarkFileStorePut measures what persisting one finished session costs
// the history store at 200 and 1000 keys: the write appends a line to a shard
// of three or more entries and, adding no key, lists no directory, so the key
// count should not show — and at the 32-entry cap of one key.
func BenchmarkFileStorePut(b *testing.B) {
	for _, keys := range []int{200, 1000} {
		b.Run(fmt.Sprintf("Keys%d", keys), func(b *testing.B) {
			entries := historyEntries(keys)
			fs := historyStore(b, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%(keys*historyAppends) == 0 {
					b.StopTimer()
					fs = historyStore(b, entries)
					b.StartTimer()
				}
				if err := fs.Put(session(entries, 3*keys+i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A key that already holds its 32 sessions, where every write of a
	// long-lived workload lands: the store drops the oldest and adds the new
	// one without decoding or encoding the thirty-one between.
	b.Run("AtCap", func(b *testing.B) {
		entries := historyEntries(1)
		fs := historyStore(b, entries)
		serial := 3
		for ; serial < 32; serial++ {
			if err := fs.Put(session(entries, serial)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Put(session(entries, serial+i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFileStoreGet measures what every recommendation, warm start and
// history read pays per shard: reading and decoding one key's three sessions,
// 48 observations of 38 parameters and 100 query times.
func BenchmarkFileStoreGet(b *testing.B) {
	entries := historyEntries(1)
	fs := historyStore(b, entries)
	key := entries[0].Fingerprint.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := fs.Get(key); err != nil || len(got) != 3 {
			b.Fatalf("%d entries, %v", len(got), err)
		}
	}
}

// BenchmarkRecommenderRebuild measures the index half of a service start over
// 200 keys and 600 sessions whose vectors the index file already holds: every
// shard is read for its entries' identities and nothing else.
func BenchmarkRecommenderRebuild(b *testing.B) {
	const keys = 200
	fs := historyStore(b, historyEntries(keys))
	service.NewRecommender(fs, nil) // writes the index file the runs below load
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rc := service.NewRecommender(fs, nil); rc.Len() != 3*keys {
			b.Fatalf("index holds %d items, want %d", rc.Len(), 3*keys)
		}
	}
}

// BenchmarkRecommend measures one zero-execution hit over 200 keys: the k-NN
// scan, five neighbors' shards read for their heads, the blend and the score.
// Every arm/qid session of the first benchmark sits at distance zero.
func BenchmarkRecommend(b *testing.B) {
	rc := service.NewRecommender(historyStore(b, historyEntries(200)), nil)
	spec := service.JobSpec{Cluster: "arm", Benchmark: Benchmarks()[0], DataSizeGB: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := rc.Recommend(spec, service.RecommendOptions{K: 5})
		if err != nil || rec.Outcome != "hit" || len(rec.Neighbors) != 5 {
			b.Fatalf("%+v, %v; want a hit on five neighbors", rec, err)
		}
	}
}

// BenchmarkPersistIndex measures the index half of persisting a session at
// 600 indexed items: featurize the entry and upsert it in memory — no record
// appended, no snapshot rewrite to amortise. Every key stays below the
// per-key cap, so no shard is read.
func BenchmarkPersistIndex(b *testing.B) {
	const keys = 200
	entries := historyEntries(keys)
	rc := service.NewRecommender(historyStore(b, entries), nil)
	if rc.Len() != 3*keys {
		b.Fatalf("index holds %d items, want %d", rc.Len(), 3*keys)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(keys*historyAppends) == 0 {
			b.StopTimer()
			rc = service.NewRecommender(historyStore(b, entries), nil)
			b.StartTimer()
		}
		rc.Add(session(entries, 3*keys+i))
	}
}

// newBenchRng returns a seeded RNG for benchmark workload generation.
func newBenchRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
