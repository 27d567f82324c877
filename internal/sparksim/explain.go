package sparksim

import (
	"fmt"
	"io"

	"locat/internal/conf"
)

// StageCost is the component breakdown of one simulated stage — the
// analogue of a Spark UI stage page. The stage's latency is the maximum of
// the disk, network and CPU components plus scheduling overhead, the
// straggler tail and the memory-thrash multiplier.
type StageCost struct {
	// Kind is "scan" or "shuffle".
	Kind string
	// Sec is the stage's total latency contribution.
	Sec float64
	// DiskSec, NetSec and CPUSec are the resource components; the stage is
	// bound by the largest.
	DiskSec, NetSec, CPUSec float64
	// OverheadSec is scheduling: task waves plus driver dispatch.
	OverheadSec float64
	// TailSec is the skew straggler tail.
	TailSec float64
	// Waves is the number of task waves.
	Waves int
	// ShuffleMB and SpillMB are the bytes moved and spilled.
	ShuffleMB, SpillMB float64
	// Pressure is working set / execution memory per task; ThrashFactor is
	// the resulting slowdown multiplier (1 = none).
	Pressure, ThrashFactor float64
}

// Breakdown explains one query's simulated execution.
type Breakdown struct {
	// Query is the query name.
	Query string
	// Stages holds per-stage components in execution order.
	Stages []StageCost
	// GCSec is the JVM garbage-collection stall.
	GCSec float64
	// FixedSec is what belongs to no stage: the query's planning cost, the
	// driver's per-query overhead and, for a broadcast join, shipping the
	// small table to the executors.
	FixedSec float64
	// TotalSec is the end-to-end noiseless latency.
	TotalSec float64
	// Broadcast reports whether the plan used a broadcast join.
	Broadcast bool
}

// Explain returns the noiseless per-stage cost breakdown of one query under
// configuration c at the given data size — the tool for understanding *why*
// a configuration is slow (spilling? waves? GC? network?). It is the cost
// model's own stage walk with the components kept, so Σ stage Sec + GCSec +
// FixedSec is TotalSec and TotalSec is the query's noiseless latency; a
// broadcast join's table transfer is booked under FixedSec.
func (s *Simulator) Explain(q Query, c conf.Config, dataGB float64) Breakdown {
	e := deriveEnv(s.cluster, c)
	var bd Breakdown
	simulateQuery(&e, &q, c, dataGB, &bd)
	return bd
}

func toStageCost(kind string, c stageCost) StageCost {
	return StageCost{
		Kind:         kind,
		Sec:          c.sec,
		DiskSec:      c.diskSec,
		NetSec:       c.netSec,
		CPUSec:       c.cpuWallSec,
		OverheadSec:  c.overheadSec,
		TailSec:      c.tailSec,
		Waves:        c.waves,
		ShuffleMB:    c.shuffleMB,
		SpillMB:      c.spillMB,
		Pressure:     c.pressure,
		ThrashFactor: c.thrashFactor,
	}
}

// Render writes a human-readable explain plan.
func (b *Breakdown) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %.1fs total (gc %.1fs, fixed %.1fs", b.Query, b.TotalSec, b.GCSec, b.FixedSec)
	if b.Broadcast {
		fmt.Fprint(w, ", broadcast join")
	}
	fmt.Fprintln(w, ")")
	for i, st := range b.Stages {
		fmt.Fprintf(w, "  stage %d (%s): %.1fs  disk=%.1f net=%.1f cpu=%.1f sched=%.1f tail=%.1f",
			i, st.Kind, st.Sec, st.DiskSec, st.NetSec, st.CPUSec, st.OverheadSec, st.TailSec)
		if st.Kind == "shuffle" {
			fmt.Fprintf(w, "  shuffle=%.0fMB spill=%.0fMB pressure=%.2f thrash=%.1fx waves=%d",
				st.ShuffleMB, st.SpillMB, st.Pressure, st.ThrashFactor, st.Waves)
		}
		fmt.Fprintln(w)
	}
}
