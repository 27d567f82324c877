package bo

import (
	"runtime"
	"testing"
)

// allocBytes returns the bytes f allocates on one processor, where the EI
// round's row passes build no closures.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMinimizeAllocatesOneReservation: a Minimize run reserves its buffers
// once, for the largest training set it can reach, and no resample regrows
// them. "One reservation" is what a run one iteration past its warm start
// allocates in a workspace reserved for that size first: every buffer at
// full size, and one resample. A 40-iteration run (a resample every third,
// five samples) allocates no more than that plus a fixed slack, and so does
// an 80-iteration one against its own reservation: what a run allocates past
// its reservation is its result, not regrown buffers. With the training set
// trimmed to a cap, doubling the iterations leaves the reservation where it
// was, so the run's bytes grow by the slack at most.
func TestMinimizeAllocatesOneReservation(t *testing.T) {
	const slack = 64 << 10
	p := Problem{Dim: 8, Eval: pinObjective, Context: func(int) []float64 { return []float64{0.3} }}
	run := func(opts Options) uint64 { return allocBytes(func() { Minimize(p, opts) }) }
	for _, trim := range []int{0, 24} {
		var ran [2]uint64
		for i, iters := range []int{40, 80} {
			opts := Options{InitPoints: 6, MaxIter: iters, MCMCSamples: 5, HyperEvery: 3,
				Candidates: 300, Workers: 1, Seed: 5, MaxModelPoints: trim}
			short := opts
			short.MaxIter = opts.InitPoints + 1
			short.Workspace = new(Workspace)
			if trim > 0 {
				short.Workspace.Reserve(trim + opts.HyperEvery - 1)
			} else {
				short.Workspace.Reserve(opts.MaxIter)
			}
			reservation := run(short)
			ran[i] = run(opts)
			if ran[i] > reservation+slack {
				t.Errorf("cap %d, %d iterations: %d bytes, %d over one reservation (%d bytes); want ≤ %d",
					trim, iters, ran[i], ran[i]-reservation, reservation, slack)
			}
		}
		if trim > 0 && ran[1] > ran[0]+slack {
			t.Errorf("cap %d: 80 iterations allocate %d bytes, %d more than 40; want ≤ %d", trim, ran[1], ran[1]-ran[0], slack)
		}
	}
}
