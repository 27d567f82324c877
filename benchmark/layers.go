package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"locat/internal/bo"
	"locat/internal/dagp"
	"locat/internal/gp"
	"locat/internal/iicp"
	"locat/internal/kpca"
	"locat/internal/mat"
	"locat/internal/ml"
	"locat/internal/obs"
	"locat/internal/qcsa"
	"locat/internal/runner"
	"locat/internal/service"
	"locat/internal/service/retrieve"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// layerRow is one line of the layer table.
type layerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerBench times public functions of single layers at the sizes the
// workloads reach. Times are medians of single calls, normalised by the
// calibration kernel like every other timing; allocation counts are exact.
type layerBench struct {
	cal  *calibrator
	rows []layerRow
}

// callBudget is how long one table entry is measured, and maxCalls how many
// calls that may take.
const (
	callBudget = 80 * time.Millisecond
	maxCalls   = 2000
)

// time measures f: the normalised median duration of one call, and the
// heap objects one call allocates. setup, if not nil, runs untimed before
// every call.
func (lb *layerBench) time(setup, f func()) (perCall time.Duration, allocs float64) {
	return lb.timeN(maxCalls, setup, f)
}

func (lb *layerBench) timeN(calls int, setup, f func()) (perCall time.Duration, allocs float64) {
	if setup == nil {
		setup = func() {}
	}
	setup()
	f() // the first call pays for lazily built tables
	var ms runtime.MemStats
	setup()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	allocs = float64(ms.Mallocs - mallocs)

	before := lb.cal.sample()
	var durs []float64
	for start := time.Now(); len(durs) < 5 || (time.Since(start) < callBudget && len(durs) < calls); {
		setup()
		t0 := time.Now()
		f()
		durs = append(durs, float64(time.Since(t0)))
	}
	return time.Duration(median(durs) * lb.cal.factor(before, lb.cal.sample())), allocs
}

func (lb *layerBench) add(name string, v float64, unit string) {
	lb.rows = append(lb.rows, layerRow{name, v, unit})
}

// us and ms measure f and add a row in that unit; they return f's
// allocation count for callers that report it too.
func (lb *layerBench) us(name string, setup, f func()) float64 {
	d, allocs := lb.time(setup, f)
	lb.add(name, float64(d)/float64(time.Microsecond), "us")
	return allocs
}

func (lb *layerBench) ms(name string, setup, f func()) float64 {
	d, allocs := lb.time(setup, f)
	lb.add(name, float64(d)/float64(time.Millisecond), "ms")
	return allocs
}

// trainingSet is a smooth objective over the unit cube with a little noise:
// what a surrogate sees mid-session.
func trainingSet(rng *rand.Rand, n, d int) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		var y float64
		for j := range x {
			x[j] = rng.Float64()
			y += math.Sin(3*x[j]+float64(j)) / float64(j+1)
		}
		xs = append(xs, x)
		ys = append(ys, y+0.05*rng.NormFloat64())
	}
	return xs, ys
}

func spdMatrix(n int) *mat.Dense {
	a := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Exp(-math.Abs(float64(i-j)) / 8)
			if i == j {
				v += 0.5
			}
			a.Set(i, j, v)
		}
	}
	return a
}

// printLayers runs and prints the layer table.
func printLayers(cfg config) ([]layerRow, error) {
	rows, err := runLayers(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("layer table  seed %d  GOMAXPROCS 1  times normalised to calib_ref_ms %g\n", cfg.seed, calibRefMS)
	for _, r := range rows {
		fmt.Printf("  %-44s %14.6g %s\n", r.Name, r.Value, r.Unit)
	}
	return rows, nil
}

func runLayers(cfg config) ([]layerRow, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	lb := &layerBench{cal: newCalibrator()}
	rng := rand.New(rand.NewSource(cfg.seed))
	lb.numeric(rng)
	if err := lb.tuning(rng); err != nil {
		return nil, err
	}
	if err := lb.serving(cfg); err != nil {
		return nil, err
	}
	lb.small()
	return lb.rows, nil
}

// numeric covers mat, gp, bo and dagp.
func (lb *layerBench) numeric(rng *rand.Rand) {
	const n, d = 128, 12
	a := spdMatrix(n)
	lb.us("mat.cholesky_n128_us", nil, func() { mat.NewCholesky(a) })
	col := make([]float64, n-1)
	for i := range col {
		col[i] = a.At(i, n-1)
	}
	smaller, _ := mat.NewCholesky(spdMatrix(n - 1))
	var c *mat.Cholesky
	lb.us("mat.chol_extend_n128_us", func() { c = smaller.Clone() }, func() { c.Extend(col, a.At(n-1, n-1)) })
	e := spdMatrix(160)
	lb.ms("mat.symeigen_n160_ms", nil, func() { mat.SymEigen(e) })

	xs, ys := trainingSet(rng, n, d)
	h := gp.DefaultHyper()
	lb.us("gp.fit_n128_us", nil, func() { gp.Fit(xs, ys, h) })
	shorter, _ := gp.Fit(xs[:n-1], ys[:n-1], h)
	var grown *gp.GP
	lb.us("gp.append_n128_us", func() { grown = shorter.Clone() }, func() { grown.Append(xs[n-1], ys[n-1]) })

	g, _ := gp.Fit(xs, ys, h)
	cands, _ := trainingSet(rng, 512, d)
	var ws gp.PredictWorkspace
	lb.add("gp.predict_batch_allocs", lb.us("gp.predict_batch_n128_c512_us", nil, func() { g.PredictBatch(cands, &ws) }), "count")
	lb.add("gp.sample_hyper_allocs", lb.ms("gp.sample_hyper_n128_ms", nil, func() {
		ts, _ := gp.NewTrainSet(xs, ys, 1)
		ts.SampleHyper(5, rand.New(rand.NewSource(7)), 1)
	}), "count")

	// bo.Minimize on a synthetic 12-d objective: 30 initial points and 20
	// guided iterations, the shape of a session's phase 2.
	const iters = 20
	objective := func(x, _ []float64) float64 {
		var y float64
		for j, v := range x {
			y += (v - 0.3) * (v - 0.3) * float64(j+1)
		}
		return y
	}
	d1, allocs := lb.time(nil, func() {
		bo.Minimize(bo.Problem{Dim: d, Eval: objective}, bo.Options{
			InitPoints: 30, MinIter: 30 + iters, MaxIter: 30 + iters,
			MCMCSamples: 5, HyperEvery: 3, Candidates: 800, Workers: 1, Seed: 11,
		})
	})
	lb.add("bo.minimize_ms_per_iter", float64(d1)/float64(time.Millisecond)/iters, "ms")
	lb.add("bo.minimize_allocs_per_iter", allocs/iters, "count")

	samples := make([]dagp.Sample, 64)
	for i := range samples {
		samples[i] = dagp.Sample{X: xs[i], DataGB: 100 + 50*float64(i%5), Sec: 100 + 20*ys[i]}
	}
	lb.ms("dagp.fit_n64_ms", nil, func() { dagp.FitWorkers(samples, rand.New(rand.NewSource(3)), 1) })
	lb.ms("dagp.fit_transfer_ms", nil, func() {
		dagp.FitTransferWorkers(samples[:48], samples[48:52], rand.New(rand.NewSource(3)), 1)
	})
	model, _ := dagp.FitWorkers(samples, rand.New(rand.NewSource(3)), 1)
	lb.us("dagp.predict_batch_us", nil, func() { model.PredictBatch(cands, 300, &ws) })
}

// tuning covers kpca, iicp, qcsa, ml, sparksim and the runner stack.
func (lb *layerBench) tuning(rng *rand.Rand) error {
	app, err := workloads.ByName("TPC-DS")
	if err != nil {
		return err
	}
	sim := sparksim.New(sparksim.X86(), 5)
	space := sim.Space()
	confs := space.LHS(160, rng)
	runs := make([]sparksim.AppResult, 30)
	isamples := make([]iicp.Sample, 30)
	enc := make([][]float64, len(confs))
	secs := make([]float64, len(confs))
	for i, c := range confs {
		enc[i] = space.Encode(c)
		r := sim.RunApp(app, c, 300)
		secs[i] = r.Sec
		if i < len(runs) {
			runs[i] = r
			isamples[i] = iicp.Sample{Conf: c, Sec: r.Sec}
		}
	}
	lb.ms("kpca.fit_n160_ms", nil, func() { kpca.Fit(enc, kpca.Kernel{Kind: kpca.Gaussian}, kpca.Options{}) })
	lb.ms("iicp.analyze_ms", nil, func() { iicp.Analyze(space, isamples[:20], iicp.DefaultOptions()) })
	lb.ms("qcsa.analyze_ms", nil, func() { qcsa.Analyze(app, runs) })
	lb.add("ml.gbrt_fit_allocs", lb.ms("ml.gbrt_fit_n160_ms", nil, func() {
		ml.NewGBRT(ml.GBRTOptions{Trees: 150, MaxDepth: 4}).Fit(enc, secs)
	}), "count")

	c := confs[0]
	lb.add("sparksim.run_app_allocs", lb.us("sparksim.run_app_tpcds_us", nil, func() { sim.RunApp(app, c, 300) }), "count")

	// The runner stack a service job executes through, with fault injection
	// configured but never firing, against the bare backend.
	bare := runner.Runner(runner.NewSim(sim))
	lb.us("runner.bare_us_per_run", nil, func() { bare.RunApp(app, c, 300) })
	var tally runner.Tally
	stack := runner.NewCache(runner.Observe(
		runner.NewRetrying(runner.NewChaos(bare, runner.ChaosOptions{}), runner.RetryOptions{Seed: 5}),
		&tally), nil, func(runner.TraceEntry) {})
	lb.us("runner.stack_us_per_run", nil, func() { stack.RunApp(app, c, 300) })
	n := len(lb.rows)
	lb.add("runner.stack_overhead_ratio", lb.rows[n-1].Value/lb.rows[n-2].Value, "ratio")

	lb.us("conf.encode_decode_us", nil, func() { space.Decode(space.Encode(c)) })
	return nil
}

// serving covers the history store, the k-NN index, the recommender and the
// HTTP layer over a seeded store.
func (lb *layerBench) serving(cfg config) error {
	dir, err := os.MkdirTemp(cfg.outDir, "tmp-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(&env{cfg: cfg, dir: dir})
	if err != nil {
		return err
	}
	defer s.close()
	keys, err := s.store.Keys()
	if err != nil {
		return err
	}
	// A TPC-DS shard: 99 per-query latencies per observation make it the
	// largest kind, and the kind every recommend for TPC-DS decodes.
	key := keys[len(keys)/2]
	for _, k := range keys {
		if strings.Contains(k, "TPC-DS_b7_qid") {
			key = k
		}
	}
	entries, err := s.store.Get(key)
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("seeded key %s is empty (%v)", key, err)
	}
	items := retrieveItems(s)
	nEntries := len(items)

	lb.ms("service.store.get_ms", nil, func() { s.store.Get(key) })
	before := heapAllocated()
	s.store.Get(key)
	lb.add("service.store.get_mb", float64(heapAllocated()-before)/(1<<20), "MB")

	// Put re-encodes the shard and, once the service has set a key cap,
	// lists the whole directory; a fresh job ID per call keeps the shard at
	// its per-key cap instead of growing without bound.
	put := func(fs *service.FileStore) func() {
		i := 0
		return func() {
			e := entries[0]
			e.JobID = fmt.Sprintf("layer-%06d", i)
			e.CreatedUnix += int64(i)
			i++
			fs.Put(e)
		}
	}
	lb.ms(fmt.Sprintf("service.store.put_ms_k%d", len(keys)), nil, put(s.store))
	big, err := service.NewFileStore(filepath.Join(dir, "big"))
	if err != nil {
		return err
	}
	filler := service.Entry{Fingerprint: entries[0].Fingerprint, TargetGB: 1, BestParams: map[string]float64{}}
	for i := 0; i < 1000; i++ {
		filler.Fingerprint.Benchmark = fmt.Sprintf("filler-%04d", i)
		if err := big.Put(filler); err != nil {
			return err
		}
	}
	for _, e := range entries { // the same shard to append to as in the seeded store
		if err := big.Put(e); err != nil {
			return err
		}
	}
	big.SetMaxKeys(2000)
	lb.ms("service.store.put_ms_k1000", nil, put(big))

	cp := service.Checkpoint{JobID: "layer-job", Fingerprint: key}
	for i, o := range entries[0].Obs {
		cp.Entries = append(cp.Entries, runner.TraceEntry{Kind: runner.TraceApp, Idx: uint64(i), Conf: o.Params, DataGB: o.DataGB,
			Result: &runner.AppResult{Sec: o.Sec}})
	}
	lb.ms("service.store.checkpoint_put_ms", nil, func() { s.store.PutCheckpoint(cp) })

	ix := retrieve.NewIndex()
	for _, it := range items {
		ix.Upsert(it)
	}
	query := items[0].Vec
	lb.us(fmt.Sprintf("retrieve.nearest_us_n%d", nEntries), nil, func() { ix.Nearest(query, 5, 0.75) })
	lb.ms(fmt.Sprintf("retrieve.save_ms_n%d", nEntries), nil, func() { ix.Save(filepath.Join(dir, "layer.index")) })
	bigIx := retrieve.NewIndex()
	for i := 0; i < 10000; i++ {
		it := items[i%len(items)]
		it.ID = fmt.Sprintf("%s#%d", it.ID, i)
		bigIx.Upsert(it)
	}
	lb.us("retrieve.nearest_us_n10000", nil, func() { bigIx.Nearest(query, 5, 0.75) })

	rc := s.svc.Recommender()
	lb.ms(fmt.Sprintf("service.recommender.sync_ms_n%d", nEntries), nil, func() { rc.Sync(key) })
	spec := service.JobSpec{Cluster: "x86", Benchmark: "TPC-H", DataSizeGB: 300}
	req := service.RecommendRequest{JobSpec: spec, NoFallback: true}
	lb.ms("service.recommender.recommend_ms", nil, func() { s.svc.Recommend(req) })
	inProcess := lb.rows[len(lb.rows)-1].Value
	overHTTP, _ := lb.time(nil, func() { s.target.Recommend(req) })
	lb.add("service.http.recommend_overhead_ms", float64(overHTTP)/float64(time.Millisecond)-inProcess, "ms")

	// Submit against a held pool: admission, ID assignment and enqueue, with
	// no session starting behind it.
	s.svc.Hold()
	tiny := service.JobSpec{Cluster: "arm", Benchmark: "Scan", DataSizeGB: 8, NQCSA: 6, NIICP: 4, MaxIterations: 2, ColdStart: true}
	var ids []string
	d, _ := lb.timeN(200, nil, func() { // 200 calls stay inside the queue bound
		id, _ := s.svc.Submit(tiny)
		ids = append(ids, id)
	})
	lb.add("service.submit_us", float64(d)/float64(time.Microsecond), "us")
	lb.us("service.http.status_us", nil, func() { s.target.Status(ids[0]) })
	for _, id := range ids {
		s.svc.Cancel(id)
	}
	s.svc.Release()
	return nil
}

// retrieveItems featurises the seeded store the way the recommender does,
// by reading its persisted index.
func retrieveItems(s *server) []retrieve.Item {
	items := retrieve.Load(s.store.IndexPath()).Items()
	sort.Slice(items, func(a, b int) bool { return items[a].ID < items[b].ID })
	return items
}

// small covers the per-call costs of the observability primitives.
func (lb *layerBench) small() {
	const reps = 1000
	d, _ := lb.time(nil, func() {
		tl := obs.NewTimeline()
		for i := 0; i < reps; i++ {
			tl.Start("x").End()
		}
	})
	lb.add("obs.span_ns", float64(d)/reps, "ns")
	hist := obs.NewRegistry().Histogram("h", "", obs.DurationBuckets)
	d, _ = lb.time(nil, func() {
		for i := 0; i < reps; i++ {
			hist.Observe(0.003)
		}
	})
	lb.add("obs.histogram_observe_ns", float64(d)/reps, "ns")
}
