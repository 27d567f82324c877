package main

import "strings"

// perLayer lists the traced per-layer metrics in reporting order. Names are
// <module>.<metric>; BENCHMARK.json carries the same list. Every workload
// reports all of them: a layer a workload does not reach reads 0, which is
// itself the prediction ("no move on this workload").
var perLayer = []struct{ name, unit string }{
	{"facade.op_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"service.http.busy_ms_per_op", "ms"},
	{"service.http.requests_per_op", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.self_ms_per_session", "ms"},
	{"service.store.get_ms_per_op", "ms"},
	{"service.store.get_calls_per_op", "count"},
	{"service.store.get_mb_per_op", "MB"},
	{"service.store.put_ms", "ms"},
	{"service.store.put_calls_per_op", "count"},
	{"service.store.checkpoint_ms_per_session", "ms"},
	{"service.store.checkpoint_calls_per_session", "count"},
	{"runner.backend_ms_per_run", "ms"},
	{"runner.runs_per_session", "count"},
	{"core.think_ms_per_run", "ms"},
	{"core.cluster_s_per_session", "s"},
	{"core.phase1_sampling_ms", "ms"},
	{"core.phase1_warm_anchors_ms", "ms"},
	{"core.qcsa_reduce_ms", "ms"},
	{"core.dagp_select_base_ms", "ms"},
	{"core.iicp_select_ms", "ms"},
	{"core.phase2_search_ms", "ms"},
	{"core.gp_hyper_resample_ms", "ms"},
	{"core.final_select_ms", "ms"},
	{"baselines.tuneful_s", "s"},
	{"baselines.dac_s", "s"},
	{"baselines.gborl_s", "s"},
	{"baselines.qtune_s", "s"},
	{"baselines.opt_time_ratio", "ratio"},
}

// corePhases maps the program's span names to metric names.
var corePhases = map[string]string{
	"phase1/sampling":     "core.phase1_sampling_ms",
	"phase1/warm-anchors": "core.phase1_warm_anchors_ms",
	"qcsa/reduce":         "core.qcsa_reduce_ms",
	"dagp/select-base":    "core.dagp_select_base_ms",
	"iicp/select":         "core.iicp_select_ms",
	"phase2/search":       "core.phase2_search_ms",
	"gp/hyper-resample":   "core.gp_hyper_resample_ms",
	"final/select":        "core.final_select_ms",
}

// isSession reports a span that is one tuner's whole session: a service job,
// a direct LOCAT session or a baseline's.
func isSession(name string) bool {
	return name == "service.session" || name == "facade.session" || strings.HasPrefix(name, "baselines.")
}

func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// layerMetrics derives the per-layer metrics from the traced stretch of a
// run. clusterSec is the first cycle's exact simulated cost.
func layerMetrics(rec *recorder, untraced, traced segment, v verdict, clusterSec float64, firstSessions int) map[string]metric {
	rec.mu.Lock()
	spans := append([]span(nil), rec.done...)
	rec.mu.Unlock()
	of := func(prefix string) spanTotals { return totalsOf(spans, prefix) }
	vals := map[string]float64{}
	ops := float64(len(traced.rawMS))

	vals["facade.op_ms"] = per(of("facade.op").ms, ops)
	vals["trace.overhead_ratio"] = per(mean(traced.normMS), mean(untraced.normMS))

	http := of("service.http ")
	vals["service.http.busy_ms_per_op"] = per(http.ms, ops)
	vals["service.http.requests_per_op"] = per(float64(http.n), ops)
	queue := of("service.queue")
	vals["service.queue_wait_ms"] = per(queue.ms, float64(queue.n))

	jobs := of("service.session")
	vals["service.self_ms_per_session"] = per(jobs.selfMS, float64(jobs.n))
	get := of("service.store.get")
	vals["service.store.get_ms_per_op"] = per(get.ms, ops)
	vals["service.store.get_calls_per_op"] = per(float64(get.n), ops)
	vals["service.store.get_mb_per_op"] = per(float64(get.bytes)/(1<<20), ops)
	put := of("service.store.put")
	vals["service.store.put_ms"] = per(put.ms, float64(put.n))
	vals["service.store.put_calls_per_op"] = per(float64(put.n), ops)
	ck := of("service.store.checkpoint")
	vals["service.store.checkpoint_ms_per_session"] = per(ck.ms, float64(jobs.n))
	vals["service.store.checkpoint_calls_per_session"] = per(float64(ck.n), float64(jobs.n))

	// Sessions, and the backend runs inside each.
	var sessions, runs int
	var sessionMS, insideMS float64
	for _, s := range spans {
		if !isSession(s.Name) {
			continue
		}
		sessions++
		sessionMS += s.dur()
		for _, r := range spans {
			if r.Op == s.Op && strings.HasPrefix(r.Name, "runner.backend") && r.StartMS >= s.StartMS && r.EndMS <= s.EndMS {
				runs++
				insideMS += r.dur()
			}
		}
	}
	backend := of("runner.backend")
	vals["runner.backend_ms_per_run"] = per(backend.ms, float64(backend.n))
	vals["runner.runs_per_session"] = per(float64(runs), float64(sessions))
	vals["core.think_ms_per_run"] = per(sessionMS-insideMS, float64(runs))
	vals["core.cluster_s_per_session"] = per(clusterSec, float64(firstSessions))

	locatSessions := float64(jobs.n + of("facade.session").n)
	for phase, name := range corePhases {
		vals[name] = per(of("core."+phase).ms, locatSessions)
	}
	for tuner, name := range map[string]string{"DAC": "baselines.dac_s", "GBO-RL": "baselines.gborl_s", "QTune": "baselines.qtune_s"} {
		t := of("baselines." + tuner)
		vals[name] = per(t.ms/1000, float64(t.n))
	}
	for name, val := range v.layer {
		vals[name] = val
	}

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}
