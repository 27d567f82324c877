// Command benchmark measures the repository end to end and layer by layer:
// five workloads over the tuning facade, the HTTP service and the history
// store, timed from outside through the seams the program already exposes.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                              every workload, then a summary
//	go run ./benchmark -workload cold_tune -trace 1 one workload, per-layer metrics
//	go run ./benchmark -layers                      the layer table
//	go run ./benchmark -check                       two sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	var trace int
	var layers, check bool
	var results string
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured operations per run")
	flag.IntVar(&trace, "trace", 0, "1 records boundary spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink session budgets and the seeded store (smoke tests only)")
	flag.BoolVar(&layers, "layers", false, "print the layer table (public functions at the sizes the workloads reach) and exit")
	flag.BoolVar(&check, "check", false, "run every workload twice and require identical outputs and timings within their bounds")
	flag.StringVar(&results, "results", "", "with -workload all: also run traced and the layer table, and write everything to this file")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.outDir = outDir

	var err error
	switch {
	case layers:
		_, err = printLayers(cfg)
	case check:
		err = runCheck(cfg)
	case cfg.workload == "all":
		err = runAll(cfg, results)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process and ends standard output
// with the result line the benchmark contract asks for.
func runOne(cfg config) error {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	rep.print()
	if err := rep.save(cfg.outDir); err != nil {
		return err
	}
	metrics := rep.EndToEnd
	if cfg.trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// print writes the run for people: every metric by name with its unit, raw
// timings beside normalised ones, sample counts, the calibration summary and
// the digest of the outputs.
func (r *report) print() {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("workload %s  seed %d  %s  %g s measured  GOMAXPROCS 1, one closed-loop client\n",
		r.Workload, r.Seed, mode, r.Seconds)
	fmt.Printf("  ops %d (cycle %d)  sessions %d  attempted %d  failed %d\n",
		r.Ops, r.Cycle, r.Sessions, r.Attempted, r.Failed)
	fmt.Printf("  calib_ms_p50 %.4f  calib_spread %.3f  calib_ref_ms %g\n", r.CalibP50, r.CalibSpread, calibRefMS)
	metrics, order := r.EndToEnd, endToEndOrder
	if r.Trace {
		metrics = r.PerLayer
		order = nil
		for _, m := range perLayer {
			order = append(order, m.name)
		}
	}
	for _, name := range order {
		m := metrics[name]
		line := fmt.Sprintf("  %-44s %14.6g %-5s", name, m.Value, m.Unit)
		if raw, ok := r.Raw[name]; ok {
			line += fmt.Sprintf("  (raw %.6g)", raw.Value)
		}
		switch name {
		case "op_ms_p50":
			line += fmt.Sprintf("  n=%d", r.Ops)
		case "op_ms_tail":
			line += fmt.Sprintf("  p%g of n=%d", r.TailPct, r.Ops)
		}
		fmt.Println(line)
	}
	if !r.Trace && len(r.OpMS) <= 64 {
		fmt.Printf("  op_ms %.1f\n", r.OpMS)
	}
	fmt.Printf("  result_digest %s\n", r.Digest)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// outDir receives scratch stores, reports and trace files. It is relative to
// the working directory, which the contract makes the root of the checkout.
const outDir = "benchmark/out"

// endToEndOrder is the reporting order of the end-to-end metrics.
var endToEndOrder = []string{
	"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail",
	"tuned_speedup", "alloc_mb_per_op", "rss_peak_mb",
}

func reportPath(outDir, workload string, trace bool) string {
	name := "report-" + workload
	if trace {
		name += "-trace"
	}
	return filepath.Join(outDir, name+".json")
}

// save writes the whole report where the driving process reads it back.
func (r *report) save(outDir string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, r.Workload, r.Trace), data, 0o644)
}
