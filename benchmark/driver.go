package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// benchSpec is BENCHMARK.json, the contract this program reports to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// noisyCalibSpread is the p90÷p10 of a run's calibration samples above which
// the machine changed speed during the run; such a run is repeated.
const (
	noisyCalibSpread = 1.25
	maxReruns        = 2
)

// runChild runs one workload in a child process of this same binary — each
// workload gets a fresh heap and its own peak-memory reading — and reads its
// report back. A run whose calibration samples spread too far is repeated.
func runChild(cfg config, name string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	for attempt := 0; ; attempt++ {
		cmd := exec.Command(self,
			"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
			"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		data, err := os.ReadFile(reportPath(cfg.outDir, name, cfg.trace))
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		if rep.CalibSpread <= noisyCalibSpread || attempt == maxReruns {
			return &rep, nil
		}
		fmt.Printf("  calib_spread %.3f above %.2f: the machine changed speed mid-run, running %s again\n",
			rep.CalibSpread, noisyCalibSpread, name)
	}
}

// runSet runs every workload once.
func runSet(cfg config) ([]*report, error) {
	var reps []*report
	for _, w := range workloadTable {
		rep, err := runChild(cfg, w.name)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func failedWorkloads(reps []*report) error {
	for _, r := range reps {
		if !r.Correct {
			return fmt.Errorf("workload %s failed its output checks", r.Workload)
		}
	}
	return nil
}

// runAll prints every workload's end-to-end metrics. With a results path it
// also runs the traced set and the layer table and writes all three to the
// file: one row of the per-PR trajectory.
func runAll(cfg config, results string) error {
	cfg.trace = false
	reps, err := runSet(cfg)
	if err != nil {
		return err
	}
	if results == "" {
		return failedWorkloads(reps)
	}
	cfg.trace = true
	traced, err := runSet(cfg)
	if err != nil {
		return err
	}
	layers, err := printLayers(cfg)
	if err != nil {
		return err
	}
	type row struct {
		CalibP50 float64           `json:"calib_ms_p50"`
		Ops      int               `json:"ops"`
		Digest   string            `json:"result_digest"`
		EndToEnd map[string]metric `json:"end_to_end"`
		Raw      map[string]metric `json:"raw"`
		PerLayer map[string]metric `json:"per_layer"`
	}
	out := struct {
		NProc      int            `json:"nproc"`
		GoVersion  string         `json:"go_version"`
		Seed       int64          `json:"seed"`
		Seconds    float64        `json:"seconds"`
		CalibRefMS float64        `json:"calib_ref_ms"`
		Workloads  map[string]row `json:"workloads"`
		Layers     []layerRow     `json:"layers"`
	}{runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.seconds, calibRefMS, map[string]row{}, layers}
	for i, r := range reps {
		out.Workloads[r.Workload] = row{r.CalibP50, r.Ops, r.Digest, r.EndToEnd, r.Raw, traced[i].PerLayer}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(results, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return failedWorkloads(append(reps, traced...))
}

// exactMetric is fixed by the seed alone; two runs of one program must agree
// on it to the last bit.
const exactMetric = "tuned_speedup"

// runCheck runs two sets of the same code and requires what the benchmark
// asks of any later change: identical outputs, and every end-to-end metric
// of the second set no worse than the first by more than its bound.
func runCheck(cfg config) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.trace = false
	first, err := runSet(cfg)
	if err != nil {
		return err
	}
	second, err := runSet(cfg)
	if err != nil {
		return err
	}
	var problems []string
	for i, a := range first {
		b := second[i]
		if !a.Correct || !b.Correct {
			problems = append(problems, a.Workload+": output checks failed")
		}
		if a.Digest != b.Digest {
			problems = append(problems, a.Workload+": result_digest differs between the two sets")
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			if m.Name == exactMetric && va != vb {
				problems = append(problems, fmt.Sprintf("%s: %s is exact but reads %v then %v", a.Workload, m.Name, va, vb))
				continue
			}
			worse := vb/va - 1
			if m.Better == "higher" {
				worse = va/vb - 1
			}
			status := "ok"
			if worse > m.Bound {
				status = "OUTSIDE"
				problems = append(problems, fmt.Sprintf("%s: %s worse by %.1f%%, bound %.0f%%", a.Workload, m.Name, 100*worse, 100*m.Bound))
			}
			fmt.Printf("check %-18s %-24s %14.6g %14.6g  %+6.1f%% of %2.0f%%  %s\n",
				a.Workload, m.Name, va, vb, 100*worse, 100*m.Bound, status)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("check FAILED", p)
		}
		return fmt.Errorf("%d disagreements between two sets of the same code", len(problems))
	}
	fmt.Println("check passed: digests identical, every metric inside its bound")
	return nil
}
