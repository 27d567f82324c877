package baselines

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"locat/internal/conf"
	"locat/internal/sparksim"
	"locat/internal/workloads"
)

// confDigest hashes the exact bits of a configuration.
func confDigest(c conf.Config) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, []float64(c)) // a hash's Write cannot fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDACReportPinned pins full-budget DAC sessions to the reports recorded
// with a freshly allocated model row per GA candidate, so the one row buffer
// a session scores its candidates in is shown to change nothing.
func TestDACReportPinned(t *testing.T) {
	problems := []struct {
		cluster *sparksim.Cluster
		app     *sparksim.Application
		gb      float64
	}{
		{sparksim.ARM(), workloads.TPCH(), 100},
		{sparksim.X86(), workloads.TPCDS(), 300},
	}
	want := []string{
		"deef363eea908a8e 493.2164481706275 138555.08199114737 160",
		"5c27fa77156e9d9c 457.0712697368281 118137.10616404716 160",
		"45b2bd2d381eb064 3558.0263762987734 3.3980673679616926e+06 160",
		"51d0def9f4120215 3774.550776003572 2.2080033226815634e+06 160",
	}
	var got []string
	for _, p := range problems {
		for _, seed := range []int64{1, 7} {
			rep, err := NewDAC().Tune(sparksim.New(p.cluster, seed), p.app, p.gb, seed+7)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %v %v %d", confDigest(rep.Best), rep.TunedSec, rep.OverheadSec, rep.Runs))
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("session %d: report %q, want %q", i, got[i], want[i])
		}
	}
}
