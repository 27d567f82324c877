package sparksim

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/stat"
)

// sameDraws draws n normals — what a run draws its noise as — from got and
// want and fails at the first difference.
func sameDraws(t testing.TB, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for d := 0; d < n; d++ {
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("%s: draw %d: the run's generator gives %v, math/rand gives %v", label, d, g, w)
		}
	}
}

// TestRunSourceMatchesMathRand: the generator a run draws from, taken from
// the pool and re-seeded after runs of every length, is math/rand's seeded
// source for the run's seed (stat.SplitSeed of the simulator seed and run
// index). The source itself is stat's, tested against math/rand there; this
// holds the simulator's pooling and seeding to it.
func TestRunSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 41} {
		s := New(X86(), seed)
		for idx := uint64(0); idx < 40; idx++ {
			rng := s.runRNG(idx)
			sameDraws(t, "pooled", rng, rand.New(rand.NewSource(stat.SplitSeed(seed, idx))), 1+int(idx*37)%300)
			rngPool.Put(rng)
		}
	}
}

func FuzzRunSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1 << 31, 89482311, math.MaxInt64, math.MinInt64} {
		f.Add(seed, uint64(7), uint16(700))
	}
	f.Add(int64(41), uint64(0), uint16(2))
	f.Add(int64(-7), uint64(1<<40), uint16(0))
	f.Add(int64(1)<<40+3, uint64(math.MaxUint64), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, idx uint64, draws uint16) {
		s := New(X86(), seed)
		rng := s.runRNG(idx)
		defer rngPool.Put(rng)
		sameDraws(t, "fuzz", rng, rand.New(rand.NewSource(stat.SplitSeed(seed, idx))), int(draws))
	})
}
