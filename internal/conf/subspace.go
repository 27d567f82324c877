package conf

import (
	"fmt"
	"math/rand"
)

// Subspace is a projection of a Space onto a subset of parameter indices.
// LOCAT's IICP stage restricts Bayesian optimization to the important
// parameters; a Subspace holds the free indices while pinning every other
// parameter to a base configuration.
type Subspace struct {
	space   *Space
	base    Config
	indices []int
}

// NewSubspace returns a subspace of s over the given parameter indices.
// Parameters not listed stay fixed at base's values. The index list must be
// non-empty, in-range and free of duplicates.
func NewSubspace(s *Space, base Config, indices []int) (*Subspace, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("conf: empty subspace")
	}
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= NumParams {
			return nil, fmt.Errorf("conf: subspace index %d out of range", i)
		}
		if seen[i] {
			return nil, fmt.Errorf("conf: duplicate subspace index %d", i)
		}
		seen[i] = true
	}
	idx := append([]int(nil), indices...)
	return &Subspace{space: s, base: base.Clone(), indices: idx}, nil
}

// Dim returns the number of free parameters.
func (ss *Subspace) Dim() int { return len(ss.indices) }

// Space returns the underlying full space.
func (ss *Subspace) Space() *Space { return ss.space }

// Decode expands a unit-cube point over the free dimensions into a full,
// repaired configuration.
func (ss *Subspace) Decode(u []float64) Config {
	c := make(Config, NumParams)
	ss.DecodeInto(c, u)
	return c
}

// DecodeInto is Decode writing into dst, which must have length 38.
func (ss *Subspace) DecodeInto(dst Config, u []float64) {
	if len(u) != len(ss.indices) || len(dst) != NumParams {
		panic(fmt.Sprintf("conf: Subspace.Decode point length %d into %d, want %d", len(u), len(dst), len(ss.indices)))
	}
	copy(dst, ss.base)
	for k, i := range ss.indices {
		dst[i] = ss.space.ranges[i].at(u[k])
	}
	ss.space.repair(dst)
}

// Encode projects a full configuration onto the free dimensions in [0,1].
func (ss *Subspace) Encode(c Config) []float64 {
	full := ss.space.Encode(c)
	u := make([]float64, len(ss.indices))
	for k, i := range ss.indices {
		u[k] = full[i]
	}
	return u
}

// Random returns a valid configuration with free parameters sampled
// uniformly and the rest pinned to base.
func (ss *Subspace) Random(rng *rand.Rand) Config {
	u := make([]float64, len(ss.indices))
	for k := range u {
		u[k] = rng.Float64()
	}
	return ss.Decode(u)
}
