package stat

import "math/rand"

// The generator behind rand.NewSource is an additive lagged-Fibonacci
// sequence over 607 words with a tap 273 back. Seeding fills every word from
// a Lehmer sequence x_k = 48271^k · x0 mod (2³¹−1): word i is x_{21+3i},
// x_{22+3i} and x_{23+3i} packed at bits 40, 20 and 0, XORed with a fixed
// "cooked" word. That is 1 841 Lehmer steps, and a simulator run reads two
// words per draw for a few dozen draws. Source is the same generator with
// the fill deferred: a word is computed when a draw first reads it, jumping
// into the Lehmer sequence through a table of powers.
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	// lehmerPow[i] is 48271^(21+3i) mod (2³¹−1).
	lehmerPow [rngLen]uint64
	// rngCooked[i] is the standard library's cooked word i, read back from it
	// at start-up rather than copied: the library stays the one source of
	// truth, and the Go 1 compatibility promise freezes the seeded sequence.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lehmerA % lehmerM
	}
	for i := range lehmerPow {
		lehmerPow[i] = p
		p = p * (lehmerA * lehmerA * lehmerA % lehmerM) % lehmerM
	}

	// Draw d (from 0) of a fresh source adds word tap = (606−d) mod 607 into
	// word feed = (333−d) mod 607 and returns the sum. The first 607 draws
	// feed every word once, and from draw 273 on the tap is the word fed 273
	// draws earlier, which then held that draw's output: the last 334 draws
	// give their seed words outright, and with those the first 273 give the
	// rest.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64
	for d := range out {
		out[d] = int64(src.Uint64())
	}
	for d := rngLen - 1; d >= 0; d-- { // rngCooked holds the seed words first
		feed := (2*rngLen - rngTap - 1 - d) % rngLen
		if d >= rngTap {
			rngCooked[feed] = out[d] - out[d-rngTap]
		} else {
			rngCooked[feed] = out[d] - rngCooked[rngLen-1-d]
		}
	}
	for i := range rngCooked {
		rngCooked[i] ^= lehmerWord(i, lehmerSeed(seed))
	}
}

// lehmerSeed folds a seed into the Lehmer sequence's range, [1, 2³¹−2], as
// the standard library does.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmerWord is seed word i before cooking. The library steps the sequence in
// int32 by Schrage's method; the product mod 2³¹−1 in uint64 is the same
// number.
func lehmerWord(i int, x0 uint64) int64 {
	x := lehmerPow[i] * x0 % lehmerM
	y := x * lehmerA % lehmerM
	z := y * lehmerA % lehmerM
	return int64(x)<<40 ^ int64(y)<<20 ^ int64(z)
}

// Source is a rand.Source64 whose stream is, word for word, that of
// rand.NewSource with the same seed, and whose Seed is O(1): it bumps an
// epoch, and a word whose stamp is not the current epoch is materialised from
// the seed when a draw first reads it. It holds no state shared with another
// source beyond the two read-only tables above.
type Source struct {
	vec       [rngLen]int64
	stamp     [rngLen]uint32 // epoch in which vec[i] was last written
	epoch     uint32
	tap, feed int
	x0        uint64 // lehmerSeed of the current seed
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	r := new(Source)
	r.Seed(seed)
	return r
}

func (r *Source) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	r.x0 = lehmerSeed(seed)
	r.epoch++
	if r.epoch == 0 {
		// Wrapped: a stamp left 2³² seeds ago would read as current.
		r.stamp = [rngLen]uint32{}
		r.epoch = 1
	}
}

func (r *Source) word(i int) int64 {
	if r.stamp[i] != r.epoch {
		r.stamp[i] = r.epoch
		r.vec[i] = lehmerWord(i, r.x0) ^ rngCooked[i]
	}
	return r.vec[i]
}

func (r *Source) Uint64() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *Source) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// SplitSeed derives the seed of stream idx (a simulator run, an MCMC chain)
// by the splitmix64 mix, so neighbouring indices get decorrelated streams.
func SplitSeed(seed int64, idx uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
