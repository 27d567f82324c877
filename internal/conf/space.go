package conf

import (
	"fmt"
	"math"
	"math/rand"

	"locat/internal/stat"
)

// ClusterProfile selects which Table 2 range column applies.
type ClusterProfile int

const (
	// ProfileARM uses "Range A" (four-node KUNPENG ARM cluster).
	ProfileARM ClusterProfile = iota
	// ProfileX86 uses "Range B" (eight-node Xeon x86 cluster).
	ProfileX86
)

// String returns the profile name.
func (p ClusterProfile) String() string {
	if p == ProfileARM {
		return "ARM"
	}
	return "x86"
}

// ResourceLimits captures the cluster-manager (Yarn) capacities that bound
// resource parameters (paper Section 5.12): per-container limits and
// cluster-wide totals available to executors.
type ResourceLimits struct {
	// ContainerCores is the maximum CPU cores a single Yarn container may use.
	ContainerCores int
	// ContainerMemMB is the maximum memory (MB) of a single Yarn container.
	ContainerMemMB int
	// TotalCores is the total executor-usable cores in the cluster.
	TotalCores int
	// TotalMemMB is the total executor-usable memory (MB) in the cluster.
	TotalMemMB int
}

// Config is one full assignment of the 38 parameters, in natural units and
// canonical index order (see the P* index constants). Boolean parameters
// hold 0 or 1.
type Config []float64

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Bool reports whether the boolean parameter at index i is enabled.
func (c Config) Bool(i int) bool { return c[i] >= 0.5 }

// Space binds the Table 2 parameter list to one cluster's ranges and
// resource limits, and provides sampling, encoding and validation.
type Space struct {
	limits ResourceLimits
	ranges [NumParams]Range
}

// NewSpace returns the configuration space for the given cluster profile and
// resource limits.
func NewSpace(profile ClusterProfile, limits ResourceLimits) *Space {
	s := &Space{limits: limits}
	for i, p := range params {
		if profile == ProfileARM {
			s.ranges[i] = p.RangeARM
		} else {
			s.ranges[i] = p.RangeX86
		}
	}
	return s
}

// Dim returns the number of parameters (38).
func (s *Space) Dim() int { return NumParams }

// RangeOf returns the value range of parameter i under this space's profile.
func (s *Space) RangeOf(i int) Range { return s.ranges[i] }

// Default returns the Spark default configuration, repaired to satisfy the
// space's ranges and resource constraints.
func (s *Space) Default() Config {
	c := make(Config, NumParams)
	for i, p := range params {
		c[i] = p.Default
	}
	s.repair(c)
	return c
}

// Random returns a uniformly random valid configuration.
func (s *Space) Random(rng *rand.Rand) Config {
	c := make(Config, NumParams)
	for i := range params {
		r := s.ranges[i]
		c[i] = r.Lo + rng.Float64()*r.Width()
	}
	s.repair(c)
	return c
}

// LHS returns n valid configurations drawn by Latin Hypercube Sampling over
// the full 38-dimensional space.
func (s *Space) LHS(n int, rng *rand.Rand) []Config {
	pts := stat.LatinHypercube(n, NumParams, rng)
	out := make([]Config, n)
	for i, u := range pts {
		out[i] = s.Decode(u)
	}
	return out
}

// Encode maps a configuration to the unit cube [0,1]^38 for model input.
func (s *Space) Encode(c Config) []float64 {
	u := make([]float64, NumParams)
	s.EncodeInto(u, c)
	return u
}

// EncodeInto is Encode writing into u, which must have length 38: for
// callers that encode many configurations into one buffer.
func (s *Space) EncodeInto(u []float64, c Config) {
	if len(c) != NumParams || len(u) != NumParams {
		panic(fmt.Sprintf("conf: Encode config length %d into %d", len(c), len(u)))
	}
	for i := range c {
		r := s.ranges[i]
		if r.Width() == 0 {
			u[i] = 0
			continue
		}
		u[i] = (c[i] - r.Lo) / r.Width()
	}
}

// Decode maps a unit-cube point back to a valid configuration (rounding
// integer parameters and repairing resource constraints).
func (s *Space) Decode(u []float64) Config {
	c := make(Config, NumParams)
	s.DecodeInto(c, u)
	return c
}

// DecodeInto is Decode writing into dst, which must have length 38: for
// callers that score many points through one configuration.
func (s *Space) DecodeInto(dst Config, u []float64) {
	if len(u) != NumParams || len(dst) != NumParams {
		panic(fmt.Sprintf("conf: Decode point length %d into %d", len(u), len(dst)))
	}
	for i, v := range u {
		dst[i] = s.ranges[i].at(v)
	}
	s.repair(dst)
}

// procMemMB returns the total per-executor-process memory demand in MB:
// heap + overhead + off-heap (paper Section 5.12).
func procMemMB(c Config) float64 {
	m := c[PExecutorMemory]*1024 + c[PExecutorMemoryOverhead]
	if c.Bool(POffHeapEnabled) {
		m += c[POffHeapSize]
	}
	return m
}

// Validate checks ranges, integrality and the resource constraints of
// Section 5.12. It returns nil for a valid configuration.
func (s *Space) Validate(c Config) error {
	if len(c) != NumParams {
		return fmt.Errorf("conf: config has %d values, want %d", len(c), NumParams)
	}
	for i, p := range params {
		r := s.ranges[i]
		if !r.Contains(c[i]) {
			return fmt.Errorf("conf: %s = %v outside range [%v, %v]", p.Name, c[i], r.Lo, r.Hi)
		}
		if p.Integer && c[i] != math.Round(c[i]) {
			return fmt.Errorf("conf: %s = %v is not integral", p.Name, c[i])
		}
	}
	// Per-process memory must fit in a Yarn container.
	if pm := procMemMB(c); pm > float64(s.limits.ContainerMemMB) {
		return fmt.Errorf("conf: per-executor memory %0.f MB exceeds container capacity %d MB",
			pm, s.limits.ContainerMemMB)
	}
	if int(c[PExecutorCores]) > s.limits.ContainerCores {
		return fmt.Errorf("conf: executor cores %v exceed container capacity %d",
			c[PExecutorCores], s.limits.ContainerCores)
	}
	// Cluster-wide: instances × per-process resources ≤ totals.
	inst := c[PExecutorInstances]
	if tot := inst * c[PExecutorCores]; tot > float64(s.limits.TotalCores) {
		return fmt.Errorf("conf: %v executors × %v cores = %v exceeds cluster cores %d",
			inst, c[PExecutorCores], tot, s.limits.TotalCores)
	}
	if tot := inst * procMemMB(c); tot > float64(s.limits.TotalMemMB) {
		return fmt.Errorf("conf: total executor memory %0.f MB exceeds cluster memory %d MB",
			tot, s.limits.TotalMemMB)
	}
	return nil
}

// shrinkProcMem reduces the per-executor memory components of c — overhead
// first, then off-heap, then heap — until their sum is at most capMB. The
// heap is never shrunk below its range minimum.
func (s *Space) shrinkProcMem(c Config, capMB float64) {
	if excess := procMemMB(c) - capMB; excess > 0 {
		cut := math.Min(excess, c[PExecutorMemoryOverhead])
		c[PExecutorMemoryOverhead] -= math.Ceil(cut)
	}
	if excess := procMemMB(c) - capMB; excess > 0 && c.Bool(POffHeapEnabled) {
		cut := math.Min(excess, c[POffHeapSize])
		c[POffHeapSize] -= math.Ceil(cut)
	}
	if excess := procMemMB(c) - capMB; excess > 0 {
		heapGB := math.Floor((c[PExecutorMemory]*1024 - excess) / 1024)
		c[PExecutorMemory] = math.Max(s.ranges[PExecutorMemory].Lo, heapGB)
	}
}

// Repair returns a valid configuration derived from c: values are clamped to
// their ranges, integer parameters rounded, and resource constraints enforced
// by scaling down memory components, cores and executor instances — mirroring
// how the paper bounds the search space rather than rejecting samples. c is
// left as it was.
func (s *Space) Repair(c Config) Config {
	out := c.Clone()
	s.repair(out)
	return out
}

// repair is Repair in place, for the configurations this package has just
// built.
func (s *Space) repair(out Config) {
	for i, p := range params {
		out[i] = s.ranges[i].Clamp(out[i])
		if p.Integer {
			out[i] = math.Round(out[i])
			out[i] = s.ranges[i].Clamp(out[i])
		}
	}
	// Container caps: per-executor cores and memory must fit one container.
	if int(out[PExecutorCores]) > s.limits.ContainerCores {
		out[PExecutorCores] = float64(s.limits.ContainerCores)
	}
	s.shrinkProcMem(out, float64(s.limits.ContainerMemMB))

	// Cluster totals at the minimum instance count: if even the fewest
	// executors would oversubscribe the cluster, shrink per-executor
	// resources first.
	minInst := s.ranges[PExecutorInstances].Lo
	if maxCores := math.Floor(float64(s.limits.TotalCores) / minInst); out[PExecutorCores] > maxCores {
		out[PExecutorCores] = math.Max(s.ranges[PExecutorCores].Lo, math.Max(1, maxCores))
	}
	s.shrinkProcMem(out, math.Floor(float64(s.limits.TotalMemMB)/minInst))

	// Now reduce the instance count to fit cores and memory totals.
	maxByCores := float64(s.limits.TotalCores) / math.Max(1, out[PExecutorCores])
	maxByMem := float64(s.limits.TotalMemMB) / math.Max(1, procMemMB(out))
	maxInst := math.Floor(math.Min(maxByCores, maxByMem))
	if out[PExecutorInstances] > maxInst {
		out[PExecutorInstances] = math.Max(minInst, maxInst)
	}
}

// Neighbor returns a valid configuration obtained by perturbing c with
// Gaussian noise of the given relative scale in encoded space. Used by
// search heuristics (e.g. the DAC baseline's genetic mutation and BO's
// local candidate refinement).
func (s *Space) Neighbor(c Config, scale float64, rng *rand.Rand) Config {
	u := s.Encode(c)
	for i := range u {
		u[i] += rng.NormFloat64() * scale
	}
	return s.Decode(u)
}
