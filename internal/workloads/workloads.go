// Package workloads defines the analytical query profiles of the three
// benchmark suites the paper evaluates on (Table 1): TPC-DS (104 queries),
// TPC-H (22 queries) and the three SQL workloads of HiBench (Join, Scan,
// Aggregation), each at input data sizes of 100–500 GB.
//
// Each query's profile (class, input fraction, shuffle fraction, join shape,
// CPU weight, skew) is derived from the structure of the public query text:
// 'selection'-category queries are scan-bound and configuration-insensitive,
// while deep join/aggregation queries shuffle large fractions of their input
// and respond strongly to partition, parallelism, memory and compression
// settings — the Section 5.11 taxonomy. Profiles for queries the paper
// discusses by name (Q72's 52 GB shuffle, Q08's 5 MB shuffle, Q04's long
// insensitive run, the 23 configuration-sensitive queries of Section 5.2,
// the 13 'selection' queries of Section 5.11) are pinned to match the
// paper's description; the remaining queries receive deterministic
// name-hashed profiles within their class's realistic range.
package workloads

import (
	"fmt"
	"hash/fnv"

	"locat/internal/sparksim"
)

// DataSizesGB are the input data sizes used throughout the evaluation
// (Table 1).
var DataSizesGB = []float64{100, 200, 300, 400, 500}

// suites lists the five benchmarks in the paper's order, each constructor
// under the name its application carries.
var suites = []struct {
	name  string
	build func() *sparksim.Application
}{
	{"TPC-DS", TPCDS}, {"TPC-H", TPCH}, {"Join", HiBenchJoin}, {"Scan", HiBenchScan}, {"Aggregation", HiBenchAggregation},
}

// Suites returns all five benchmark applications in the paper's order:
// TPC-DS, TPC-H, HiBench Join, Scan, Aggregation.
func Suites() []*sparksim.Application {
	out := make([]*sparksim.Application, len(suites))
	for i, s := range suites {
		out[i] = s.build()
	}
	return out
}

// builder finds a benchmark's constructor by name.
func builder(name string) (func() *sparksim.Application, error) {
	for _, s := range suites {
		if s.name == name {
			return s.build, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// ByName returns the named benchmark application. Recognized names (case
// sensitive): "TPC-DS", "TPC-H", "Join", "Scan", "Aggregation".
func ByName(name string) (*sparksim.Application, error) {
	build, err := builder(name)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// Check returns the error ByName would return for name, without building the
// application: what a caller that only validates a name should pay.
func Check(name string) error {
	_, err := builder(name)
	return err
}

// hashFloats returns n deterministic pseudo-random values in [0,1) derived
// from a string key — used to give unpinned queries stable, plausible
// profiles without a table of 104 hand-written rows.
func hashFloats(key string, n int) []float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	out := make([]float64, n)
	for i := range out {
		// xorshift* step
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		out[i] = float64((x*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	}
	return out
}

func lerp(lo, hi, t float64) float64 { return lo + (hi-lo)*t }
