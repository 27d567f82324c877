package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks session budgets and the seeded store for smoke tests;
	// numbers taken below 1 are not comparable with anything.
	scale  float64
	outDir string
}

// setupRuns is how often a workload is set up per run; setup_s is the
// median, so that one slow directory creation does not decide it.
const setupRuns = 3

// shortOpsPerCalib is how many short operations share one pair of
// calibration samples.
const shortOpsPerCalib = 50

// opResult is what one operation produced and what the harness checks and
// accounts for it.
type opResult struct {
	sessions   int       // tuning sessions completed
	clusterSec float64   // simulated cluster seconds spent
	speedups   []float64 // default ÷ delivered latency, where the op knows it
	digest     string    // the op's outputs, rendered exactly
	failures   []string  // violated output checks
}

// verdict is what a workload's post-measurement verification adds: checks
// that need extra executions (evaluating recommended configurations on the
// simulator, running the tuners the timed baselines are compared with), and
// exact per-layer figures that come out of them.
type verdict struct {
	speedups []float64
	failures []string
	layer    map[string]float64
}

// instance is one set-up of a workload, ready for timed operations.
type instance interface {
	// cycle is the number of consecutive operations that cover every
	// problem of the workload once. Exact metrics and the result digest are
	// taken over the first cycle, which always completes.
	cycle() int
	// long reports operations of session length: the calibration kernel runs
	// around each. Short operations share a pair of samples per block.
	long() bool
	op(i int) opResult
	verify(first []opResult) verdict
	close()
}

// workload is a named way to build instances.
type workload struct {
	name string
	why  string
	// tailCap is the highest percentile op_ms_tail reports for the workload,
	// chosen so that the expected sample count leaves twice the ten samples
	// the reporting rule wants beyond it.
	tailCap float64
	setup   func(env *env) (instance, error)
}

// env is what a set-up may use.
type env struct {
	cfg config
	dir string    // scratch directory of this set-up
	rec *recorder // nil unless tracing
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload measured. The contract's
// result line carries only Correct, Attempted, Failed and the metrics of the
// requested kind; the rest is for people and for -check.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	EndToEnd    map[string]metric `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	Raw         map[string]metric `json:"raw"`
	Ops         int               `json:"ops"`
	Cycle       int               `json:"cycle"`
	Sessions    int               `json:"sessions"`
	TailPct     float64           `json:"tail_pct"`
	OpMS        []float64         `json:"op_ms"`
	CalibP50    float64           `json:"calib_ms_p50"`
	CalibSpread float64           `json:"calib_spread"`
	Digest      string            `json:"result_digest"`
}

// segment is a set of measured operations.
type segment struct {
	rawMS, normMS []float64
	results       []opResult
	allocBytes    uint64
}

func (s *segment) add(raw, norm float64, res opResult) {
	s.rawMS = append(s.rawMS, raw)
	s.normMS = append(s.normMS, norm)
	s.results = append(s.results, res)
}

// measure runs operations until seconds have passed and at least one cycle
// is complete. With a recorder, spans are on for every other cycle and the
// operations come back in two segments, plain and traced: taking turns keeps
// a store that grows during the run equally large for both, so that their
// ratio is the cost of tracing and not of the growth.
func measure(inst instance, cal *calibrator, rec *recorder, seconds float64) (plain, traced segment) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	least := inst.cycle()
	if rec != nil {
		least *= 2
	}
	spansOn := func(i int) bool { return rec != nil && i/inst.cycle()%2 == 1 }

	// A block is a run of operations between two calibration samples: start
	// is its first operation and sample the one taken before it. The sample
	// after a block is the next block's.
	type block struct{ start, sample int }
	var raw []float64
	var results []opResult
	start := time.Now()
	blocks := []block{{0, cal.sample()}}
	for i := 0; i < least || time.Since(start).Seconds() < seconds; i++ {
		if rec != nil {
			rec.enabled.Store(spansOn(i))
		}
		t0 := time.Now()
		res := inst.op(i)
		t1 := time.Now()
		rec.finishOp(i, t0, t1)
		raw = append(raw, float64(t1.Sub(t0))/float64(time.Millisecond))
		results = append(results, res)
		if inst.long() || i+1-blocks[len(blocks)-1].start >= shortOpsPerCalib {
			blocks = append(blocks, block{i + 1, cal.sample()})
		}
	}
	if rec != nil {
		rec.enabled.Store(false)
	}
	if last := blocks[len(blocks)-1]; last.start < len(raw) {
		blocks = append(blocks, block{len(raw), cal.sample()})
	}
	// Factors are computed once every sample exists, so that an operation's
	// window reaches forward as well as back.
	for k := 0; k+1 < len(blocks); k++ {
		f := cal.factor(blocks[k].sample, blocks[k+1].sample)
		for i := blocks[k].start; i < blocks[k+1].start; i++ {
			if spansOn(i) {
				traced.add(raw[i], raw[i]*f, results[i])
			} else {
				plain.add(raw[i], raw[i]*f, results[i])
			}
		}
	}
	runtime.ReadMemStats(&ms)
	plain.allocBytes = (ms.TotalAlloc - alloc0) * uint64(len(plain.rawMS)) / uint64(len(raw))
	return plain, traced
}

// runWorkload sets the workload up, measures it and verifies its outputs.
func runWorkload(w workload, cfg config) (*report, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	cal := newCalibrator()
	for i := 0; i < 20; i++ { // let the kernel's pages and the clock settle
		cal.once()
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up, several times over; the last one is measured.
	var inst instance
	var setupRaw []float64
	setupSamples := []int{cal.sample()}
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		dir := filepath.Join(scratch, strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		inst, err = w.setup(&env{cfg: cfg, dir: dir, rec: rec})
		raw := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupRaw = append(setupRaw, raw)
		setupSamples = append(setupSamples, cal.sample())
	}
	defer inst.close()
	setupNorm := make([]float64, setupRuns)
	for i, raw := range setupRaw {
		setupNorm[i] = raw * cal.factor(setupSamples[i], setupSamples[i+1])
	}

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Cycle: inst.cycle(), Raw: map[string]metric{},
	}
	seg, traced := measure(inst, cal, rec, cfg.seconds)
	first := seg.results[:inst.cycle()]
	v := inst.verify(first)

	// Output checks.
	all := append(append([]opResult(nil), seg.results...), traced.results...)
	rep.Attempted = len(all)
	for i, r := range all {
		if len(r.failures) > 0 {
			rep.Failed++
			for _, f := range r.failures {
				rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %s", i, f))
			}
		}
		rep.Sessions += r.sessions
	}
	rep.Failures = append(rep.Failures, v.failures...)
	rep.Ops = len(seg.rawMS)
	rep.OpMS = seg.normMS
	rep.CalibP50, rep.CalibSpread = cal.spread()

	// Exact figures and the digest come from the first cycle only: it is the
	// same set of operations in every run of a seed, however many more fit
	// into the measured time.
	h := sha256.New()
	var firstSessions int
	var clusterSec float64
	speedups := append([]float64(nil), v.speedups...)
	for i, r := range first {
		fmt.Fprintf(h, "%d|%s\n", i, r.digest)
		firstSessions += r.sessions
		clusterSec += r.clusterSec
		speedups = append(speedups, r.speedups...)
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))

	if cfg.trace {
		rep.PerLayer = layerMetrics(rec, seg, traced, v, clusterSec, firstSessions)
		if rec.selfSumDev > 0.05 {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("trace: self times of an operation sum to %.1f%% off its root span", 100*rec.selfSumDev))
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := rec.write(path, w.name, cfg.seed); err != nil {
			return nil, err
		}
	}

	rep.Correct = len(rep.Failures) == 0

	// End-to-end metrics always come from operations run with spans off.
	normS, rawS := sum(seg.normMS)/1000, sum(seg.rawMS)/1000
	n := float64(len(seg.normMS))
	rep.TailPct = highestPercentile(len(seg.normMS))
	if rep.TailPct > w.tailCap {
		rep.TailPct = w.tailCap
	}
	rep.EndToEnd = map[string]metric{
		"setup_s":         {median(setupNorm), "s"},
		"ops_per_s":       {n / normS, "1/s"},
		"op_ms_p50":       {median(seg.normMS), "ms"},
		"op_ms_tail":      {quantile(seg.normMS, rep.TailPct), "ms"},
		"tuned_speedup":   {geomean(speedups), "x"},
		"alloc_mb_per_op": {float64(seg.allocBytes) / n / (1 << 20), "MB"},
		"rss_peak_mb":     {rssPeakMB(), "MB"},
	}
	rep.Raw["setup_s"] = metric{median(setupRaw), "s"}
	rep.Raw["ops_per_s"] = metric{n / rawS, "1/s"}
	rep.Raw["op_ms_p50"] = metric{median(seg.rawMS), "ms"}
	rep.Raw["op_ms_tail"] = metric{quantile(seg.rawMS, rep.TailPct), "ms"}
	rep.Raw["measured_s"] = metric{rawS, "s"}
	return rep, nil
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
