package conf

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Limits matching the paper's clusters. ARM: 3 slave nodes × 128 cores ×
// 512 GB; x86: 7 slave nodes × 20 cores × 64 GB.
func armLimits() ResourceLimits {
	return ResourceLimits{ContainerCores: 8, ContainerMemMB: 64 * 1024, TotalCores: 384, TotalMemMB: 1536 * 1024}
}
func x86Limits() ResourceLimits {
	return ResourceLimits{ContainerCores: 16, ContainerMemMB: 56 * 1024, TotalCores: 140, TotalMemMB: 448 * 1024}
}

func TestParamsCount(t *testing.T) {
	ps := Params()
	if len(ps) != 38 {
		t.Fatalf("len(Params()) = %d; want 38 (Table 2)", len(ps))
	}
	var numeric, boolean int
	for _, p := range ps {
		switch p.Type {
		case Numeric:
			numeric++
		case Bool:
			boolean++
		}
	}
	if numeric != 27 || boolean != 11 {
		t.Fatalf("numeric=%d boolean=%d; want 27/11 per Table 2", numeric, boolean)
	}
}

func TestParamsTableSanity(t *testing.T) {
	seen := map[string]bool{}
	for i, p := range Params() {
		if p.Name == "" || !strings.HasPrefix(p.Name, "spark.") {
			t.Fatalf("param %d has bad name %q", i, p.Name)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate param %q", p.Name)
		}
		seen[p.Name] = true
		if p.Desc == "" {
			t.Fatalf("%s missing description", p.Name)
		}
		if p.RangeARM.Lo > p.RangeARM.Hi || p.RangeX86.Lo > p.RangeX86.Hi {
			t.Fatalf("%s has inverted range", p.Name)
		}
		if p.SQLLevel != strings.HasPrefix(p.Name, "spark.sql.") {
			t.Fatalf("%s SQLLevel flag inconsistent with name", p.Name)
		}
	}
}

func TestResourceParamsMarked(t *testing.T) {
	// Exactly the six starred parameters in Table 2.
	want := map[string]bool{
		"spark.driver.cores":            true,
		"spark.driver.memory":           true,
		"spark.executor.cores":          true,
		"spark.executor.memory":         true,
		"spark.executor.memoryOverhead": true,
		"spark.memory.offHeap.size":     true,
	}
	var got int
	for _, p := range Params() {
		if p.Resource {
			if !want[p.Name] {
				t.Fatalf("%s unexpectedly marked Resource", p.Name)
			}
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("got %d resource params; want %d", got, len(want))
	}
}

func TestParamByName(t *testing.T) {
	p, idx, ok := ParamByName("spark.sql.shuffle.partitions")
	if !ok || idx != PSQLShufflePartitions || p.Default != 200 {
		t.Fatalf("ParamByName = %+v, %d, %v", p, idx, ok)
	}
	if _, _, ok := ParamByName("spark.nonexistent"); ok {
		t.Fatal("found nonexistent param")
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{2, 10}
	if !r.Contains(2) || !r.Contains(10) || r.Contains(1.9) || r.Contains(10.1) {
		t.Fatal("Contains wrong")
	}
	if r.Clamp(1) != 2 || r.Clamp(11) != 10 || r.Clamp(5) != 5 {
		t.Fatal("Clamp wrong")
	}
	if r.Width() != 8 {
		t.Fatal("Width wrong")
	}
}

func TestProfileRanges(t *testing.T) {
	arm := NewSpace(ProfileARM, armLimits())
	x86 := NewSpace(ProfileX86, x86Limits())
	// spark.executor.cores: ARM 1-8, x86 1-16 (Table 2).
	if arm.RangeOf(PExecutorCores) != (Range{1, 8}) {
		t.Fatalf("ARM executor.cores range = %v", arm.RangeOf(PExecutorCores))
	}
	if x86.RangeOf(PExecutorCores) != (Range{1, 16}) {
		t.Fatalf("x86 executor.cores range = %v", x86.RangeOf(PExecutorCores))
	}
	// spark.executor.instances: ARM 48-384, x86 9-112.
	if arm.RangeOf(PExecutorInstances) != (Range{48, 384}) || x86.RangeOf(PExecutorInstances) != (Range{9, 112}) {
		t.Fatal("executor.instances ranges wrong")
	}
	if ProfileARM.String() != "ARM" || ProfileX86.String() != "x86" {
		t.Fatal("String() wrong")
	}
}

// profileSpace returns the space of profile p under its cluster's limits.
func profileSpace(p ClusterProfile) *Space {
	if p == ProfileX86 {
		return NewSpace(p, x86Limits())
	}
	return NewSpace(p, armLimits())
}

func TestDefaultIsValid(t *testing.T) {
	for _, p := range []ClusterProfile{ProfileARM, ProfileX86} {
		s := profileSpace(p)
		c := s.Default()
		if err := s.Validate(c); err != nil {
			t.Fatalf("%v default invalid: %v", p, err)
		}
	}
}

func TestRandomConfigsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []ClusterProfile{ProfileARM, ProfileX86} {
		s := profileSpace(p)
		for i := 0; i < 200; i++ {
			c := s.Random(rng)
			if err := s.Validate(c); err != nil {
				t.Fatalf("%v random config %d invalid: %v\nconfig: %v", p, i, err, c)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		c := s.Random(rng)
		u := s.Encode(c)
		for _, v := range u {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("encoded value %v outside unit interval", v)
			}
		}
		c2 := s.Decode(u)
		// Decode(Encode(c)) must be the same configuration up to repair
		// idempotence (c is already valid, so it should round-trip exactly).
		for j := range c {
			if math.Abs(c[j]-c2[j]) > 1e-6 {
				t.Fatalf("round trip changed param %d: %v -> %v", j, c[j], c2[j])
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	if err := s.Validate(make(Config, 5)); err == nil {
		t.Fatal("short config accepted")
	}
	c := s.Default()
	c[PExecutorCores] = 99
	if err := s.Validate(c); err == nil {
		t.Fatal("out-of-range cores accepted")
	}
	c = s.Default()
	c[PMemoryFraction] = 0.6123 // allowed: fractional param
	if err := s.Validate(c); err != nil {
		t.Fatalf("fractional memory.fraction rejected: %v", err)
	}
	c = s.Default()
	c[PExecutorInstances] = 100.5
	if err := s.Validate(c); err == nil {
		t.Fatal("non-integral instances accepted")
	}
}

func TestRepairEnforcesContainerMemory(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	c := s.Default()
	c[PExecutorMemory] = 48
	c[PExecutorMemoryOverhead] = 49152
	c[POffHeapEnabled] = 1
	c[POffHeapSize] = 49152
	r := s.Repair(c)
	if err := s.Validate(r); err != nil {
		t.Fatalf("repaired config invalid: %v", err)
	}
	if pm := procMemMB(r); pm > float64(x86Limits().ContainerMemMB) {
		t.Fatalf("per-process memory %v exceeds container", pm)
	}
}

func TestRepairEnforcesClusterTotals(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	c := s.Default()
	c[PExecutorInstances] = 112
	c[PExecutorCores] = 16
	r := s.Repair(c)
	if err := s.Validate(r); err != nil {
		t.Fatalf("repaired config invalid: %v", err)
	}
	if r[PExecutorInstances]*r[PExecutorCores] > float64(x86Limits().TotalCores) {
		t.Fatal("cluster core total still violated")
	}
}

func TestRepairIdempotent(t *testing.T) {
	s := NewSpace(ProfileARM, armLimits())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		c := s.Random(rng)
		r := s.Repair(c)
		for j := range c {
			if c[j] != r[j] {
				t.Fatalf("Repair not idempotent on valid config at param %d", j)
			}
		}
	}
}

func TestLHSValidAndSpread(t *testing.T) {
	s := NewSpace(ProfileARM, armLimits())
	rng := rand.New(rand.NewSource(4))
	cs := s.LHS(10, rng)
	if len(cs) != 10 {
		t.Fatalf("LHS returned %d configs", len(cs))
	}
	for _, c := range cs {
		if err := s.Validate(c); err != nil {
			t.Fatalf("LHS config invalid: %v", err)
		}
	}
	// A free parameter (no repair interference) should be well spread.
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = c[PSQLShufflePartitions]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 500 {
		t.Fatalf("LHS shuffle.partitions spread too small: [%v, %v]", lo, hi)
	}
}

func TestSubspace(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	base := s.Default()
	idx := []int{PSQLShufflePartitions, PExecutorMemory, PShuffleCompress}
	ss, err := NewSubspace(s, base, idx)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Dim() != 3 {
		t.Fatalf("Dim = %d", ss.Dim())
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		c := ss.Random(rng)
		if err := s.Validate(c); err != nil {
			t.Fatalf("subspace sample invalid: %v", err)
		}
		// Pinned parameters must match base (except those repair may touch;
		// locality.wait is never touched by repair).
		if c[PLocalityWait] != base[PLocalityWait] {
			t.Fatal("pinned parameter changed")
		}
	}
	// Encode/Decode round trip over free dims.
	c := ss.Random(rng)
	u := ss.Encode(c)
	c2 := ss.Decode(u)
	for _, i := range idx {
		if math.Abs(c[i]-c2[i]) > 1e-6 {
			t.Fatalf("subspace round trip changed param %d", i)
		}
	}
}

func TestSubspaceErrors(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	base := s.Default()
	if _, err := NewSubspace(s, base, nil); err == nil {
		t.Fatal("empty subspace accepted")
	}
	if _, err := NewSubspace(s, base, []int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := NewSubspace(s, base, []int{1, 1}); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestNeighborValid(t *testing.T) {
	s := NewSpace(ProfileARM, armLimits())
	rng := rand.New(rand.NewSource(6))
	a := s.Random(rng)
	for i := 0; i < 50; i++ {
		if err := s.Validate(s.Neighbor(a, 0.1, rng)); err != nil {
			t.Fatalf("Neighbor invalid: %v", err)
		}
	}
}

// Property: Repair always yields a configuration that Validate accepts, from
// arbitrary (even wildly out-of-range) input.
func TestRepairAlwaysValid(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := make(Config, NumParams)
		for i := range c {
			c[i] = (rng.Float64() - 0.2) * 1e5
		}
		return s.Validate(s.Repair(c)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigBoolClone(t *testing.T) {
	c := Config{0, 1, 0.7}
	if c.Bool(0) || !c.Bool(1) || !c.Bool(2) {
		t.Fatal("Bool wrong")
	}
	cl := c.Clone()
	cl[0] = 9
	if c[0] != 0 {
		t.Fatal("Clone aliases")
	}
}

// kept holds a built configuration, so that it escapes as a caller's would.
var kept Config

// The builders repair the configuration they made in place: each allocates
// exactly the Config it returns, DecodeInto none, and both decodes agree.
// The exported Repair still leaves its argument alone.
func TestDecodeAllocs(t *testing.T) {
	s := NewSpace(ProfileX86, x86Limits())
	ss, err := NewSubspace(s, s.Default(), []int{PExecutorCores, PExecutorMemory, PSQLShufflePartitions})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	u := s.Encode(s.Random(rng))
	su := ss.Encode(s.Random(rng))
	dst := make(Config, NumParams)
	for _, tc := range []struct {
		name  string
		want  float64
		build func()
	}{
		{"Space.Decode", 1, func() { kept = s.Decode(u) }},
		{"Space.Random", 1, func() { kept = s.Random(rng) }},
		{"Space.Default", 1, func() { kept = s.Default() }},
		{"Subspace.Decode", 1, func() { kept = ss.Decode(su) }},
		{"Space.DecodeInto", 0, func() { s.DecodeInto(dst, u) }},
		{"Subspace.DecodeInto", 0, func() { ss.DecodeInto(dst, su) }},
	} {
		if n := testing.AllocsPerRun(100, tc.build); n != tc.want {
			t.Errorf("%s allocates %v times, want %v", tc.name, n, tc.want)
		}
	}
	s.DecodeInto(dst, u)
	if !reflect.DeepEqual(dst, s.Decode(u)) {
		t.Fatalf("Space.DecodeInto %v, Decode %v", dst, s.Decode(u))
	}
	ss.DecodeInto(dst, su)
	if !reflect.DeepEqual(dst, ss.Decode(su)) {
		t.Fatalf("Subspace.DecodeInto %v, Decode %v", dst, ss.Decode(su))
	}
	bad := s.Default()
	bad[PExecutorMemory] = 1e6
	before := bad.Clone()
	if s.Repair(bad); !reflect.DeepEqual(bad, before) {
		t.Fatal("Repair changed its argument")
	}
}
