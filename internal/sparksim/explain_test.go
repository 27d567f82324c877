package sparksim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"locat/internal/conf"
)

func TestExplainComponentsConsistent(t *testing.T) {
	// heavyjoin's small table is 9 GB at 100 GB: it broadcasts only when the
	// data is small and the threshold at its largest. dimjoin's is 4 MB.
	cases := []struct {
		q           Query
		dataGB      float64
		thresholdKB float64
		broadcast   bool
	}{
		{joinQuery(), 200, 1024, false},
		{joinQuery(), 0.05, 8192, true},
		{dimJoinQuery(), 100, 1024, false},
		{dimJoinQuery(), 100, 8192, true},
	}
	for _, cl := range []*Cluster{ARM(), X86()} {
		s := New(cl, 1, WithNoise(0), withRunNoise(0))
		for _, tc := range cases {
			q := tc.q
			c := cl.Space().Default()
			c[conf.PAutoBroadcastJoinThreshold] = tc.thresholdKB
			c = cl.Space().Repair(c)
			bd := s.Explain(q, c, tc.dataGB)
			if bd.Query != q.Name {
				t.Fatalf("query name %q", bd.Query)
			}
			if bd.Broadcast != tc.broadcast {
				t.Fatalf("%s %s at threshold %v: Broadcast = %v", cl.Name, q.Name, tc.thresholdKB, bd.Broadcast)
			}
			if len(bd.Stages) != q.Stages {
				t.Fatalf("got %d stages; want %d", len(bd.Stages), q.Stages)
			}
			if bd.Stages[0].Kind != "scan" || bd.Stages[1].Kind != "shuffle" {
				t.Fatal("stage kinds wrong")
			}
			// The breakdown total matches the simulator's noiseless time exactly.
			if want := noiselessQueryTime(s, q, c, tc.dataGB); bd.TotalSec != want {
				t.Fatalf("TotalSec %v != NoiselessQueryTime %v", bd.TotalSec, want)
			}
			// Stage seconds plus GC plus fixed reconstruct the total, the
			// broadcast transfer being booked under fixed.
			var sum float64
			for _, st := range bd.Stages {
				sum += st.Sec
				if st.Sec <= 0 || st.ThrashFactor < 1 || st.Waves < 1 {
					t.Fatalf("bad stage %+v", st)
				}
				// The stage is bound by one of its components.
				bound := math.Max(st.DiskSec, math.Max(st.NetSec, st.CPUSec))
				if st.Sec+1e-9 < bound {
					t.Fatalf("stage %v below its binding component %v", st.Sec, bound)
				}
			}
			if got := sum + bd.GCSec + bd.FixedSec; math.Abs(got-bd.TotalSec) > 1e-9*bd.TotalSec {
				t.Fatalf("%s %s broadcast=%v: components %v do not reconstruct total %v", cl.Name, q.Name, tc.broadcast, got, bd.TotalSec)
			}
		}
	}
}

func TestExplainBroadcastFlag(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0), withRunNoise(0))
	space := cl.Space()
	q := dimJoinQuery()
	hi := space.Default()
	hi[conf.PAutoBroadcastJoinThreshold] = 8192
	hi = space.Repair(hi)
	lo := hi.Clone()
	lo[conf.PAutoBroadcastJoinThreshold] = 1024
	lo = space.Repair(lo)
	if !s.Explain(q, hi, 100).Broadcast {
		t.Fatal("broadcast not detected at 8MB threshold")
	}
	if s.Explain(q, lo, 100).Broadcast {
		t.Fatal("broadcast wrongly detected at 1MB threshold")
	}
}

func TestExplainDiagnosesThrash(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0), withRunNoise(0))
	space := cl.Space()
	q := joinQuery()
	bad := space.Default()
	bad[conf.PExecutorMemory] = 4
	bad[conf.PExecutorCores] = 8
	bad[conf.PSQLShufflePartitions] = 100
	bad[conf.POffHeapEnabled] = 0
	bad = space.Repair(bad)
	bd := s.Explain(q, bad, 400)
	found := false
	for _, st := range bd.Stages {
		if st.Kind == "shuffle" && st.ThrashFactor > 2 && st.SpillMB > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("explain did not surface thrash under a starved config")
	}
}

func TestBreakdownRender(t *testing.T) {
	cl := X86()
	s := New(cl, 1, WithNoise(0), withRunNoise(0))
	bd := s.Explain(joinQuery(), cl.Space().Default(), 100)
	var buf bytes.Buffer
	bd.Render(&buf)
	out := buf.String()
	for _, want := range []string{"heavyjoin", "stage 0 (scan)", "stage 1 (shuffle)", "pressure="} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
