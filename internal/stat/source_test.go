package stat

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameStream draws n values from got and want through the four rand.Rand
// methods interleaved and fails at the first difference. NormFloat64 and
// Float64 occasionally consume more than one word, so the two generators stay
// in step only if every word agrees.
func sameStream(t testing.TB, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for d := 0; d < n; d++ {
		var g, w any
		switch d % 4 {
		case 0:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		default:
			g, w = got.Intn(1000003), want.Intn(1000003)
		}
		if g != w {
			t.Fatalf("%s: draw %d: lazy source gives %v, math/rand gives %v", label, d, g, w)
		}
	}
}

// The lazy source is math/rand's seeded source: the standard library itself is
// the oracle. 2 400 draws is past one full wrap of the 607 words, so every
// word is materialised and then overwritten by the additive recurrence.
func TestRunSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, 1 << 31, 89482311, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(607))
	for len(seeds) < 309 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		sameStream(t, "fresh", rand.New(NewSource(seed)), rand.New(rand.NewSource(seed)), 2400)
	}

	// One generator re-seeded after partial reads of every length must not
	// leak a word of the previous stream, whichever words that stream touched.
	src := NewSource(0)
	rng := rand.New(src)
	for i, seed := range seeds {
		rng.Seed(seed)
		sameStream(t, "re-seeded", rng, rand.New(rand.NewSource(seed)), 1+(i*37)%900)
	}

	// The same across the epoch counter's wraparound: the seed before the
	// wrap stamps words with the maximum, the wrap clears every stamp.
	src.epoch = math.MaxUint32 - 2
	for i, seed := range seeds[:8] {
		rng.Seed(seed)
		sameStream(t, "across the epoch wrap", rng, rand.New(rand.NewSource(seed)), 50+300*i)
	}
	if src.epoch != 6 {
		t.Fatalf("epoch %d after wrapping from its maximum, want 6", src.epoch)
	}
}

func FuzzRunSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lehmerM, 1 << 31, 89482311, math.MaxInt64, math.MinInt64} {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(41), uint16(2))
	f.Add(int64(-7), uint16(0))
	f.Add(int64(1)<<40+3, uint16(65535))
	src := NewSource(0)
	rng := rand.New(src)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		// One pooled generator across inputs, as the simulator uses it.
		rng.Seed(seed)
		sameStream(t, "fuzz", rng, rand.New(rand.NewSource(seed)), int(draws))
	})
}

var benchSink float64

// BenchmarkRunSeed prices what a run pays for its noise stream: seed, then
// that many normals (2 is a single-query application, 23 TPC-H, 105 TPC-DS).
// The stdlib row is the eager fill the lazy source replaced.
func BenchmarkRunSeed(b *testing.B) {
	sources := []struct {
		name string
		rng  *rand.Rand
	}{
		{"lazy", rand.New(NewSource(0))},
		{"stdlib", rand.New(rand.NewSource(0))},
	}
	for _, draws := range []int{2, 23, 105} {
		for _, src := range sources {
			b.Run("draws="+strconv.Itoa(draws)+"/"+src.name, func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					src.rng.Seed(SplitSeed(41, uint64(i)))
					for d := 0; d < draws; d++ {
						sink += src.rng.NormFloat64()
					}
				}
				benchSink = sink
			})
		}
	}
}

// BenchmarkLatinHypercubeInto prices one EI round's stratified pool (core's
// phase-1 shape, 400 points in 38 dimensions) on bo's generator, rand.Rand
// over a Source.
func BenchmarkLatinHypercubeInto(b *testing.B) {
	const n, d = 400, 38
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	perm := make([]int, n)
	rng := rand.New(NewSource(3))
	for i := 0; i < b.N; i++ {
		LatinHypercubeInto(out, d, perm, rng)
	}
}
