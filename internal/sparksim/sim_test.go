package sparksim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locat/internal/conf"
	"locat/internal/stat"
)

func joinQuery() Query {
	return Query{
		Name: "heavyjoin", Class: Join, InputFrac: 0.6, ShuffleFrac: 0.85,
		Stages: 5, SmallTableMB: 9000, CPUWeight: 2.5, Skew: 0.4, FixedSec: 1,
	}
}

func scanQuery() Query {
	return Query{
		Name: "scan", Class: Selection, InputFrac: 1.0, ShuffleFrac: 0.0001,
		Stages: 1, CPUWeight: 0.9, Skew: 0.02, FixedSec: 1,
	}
}

func dimJoinQuery() Query {
	return Query{
		Name: "dimjoin", Class: Join, InputFrac: 0.4, ShuffleFrac: 0.5,
		Stages: 3, SmallTableMB: 4, DimSmall: true, CPUWeight: 1.5, Skew: 0.2, FixedSec: 1,
	}
}

func TestClusters(t *testing.T) {
	arm, x86 := ARM(), X86()
	if arm.TotalCores() != 384 || arm.TotalMemMB() != 1536*1024 {
		t.Fatalf("ARM totals: %d cores %d MB", arm.TotalCores(), arm.TotalMemMB())
	}
	if x86.TotalCores() != 140 || x86.TotalMemMB() != 448*1024 {
		t.Fatalf("x86 totals: %d cores %d MB", x86.TotalCores(), x86.TotalMemMB())
	}
	p := conf.Params()[conf.PExecutorCores]
	if arm.Space().RangeOf(conf.PExecutorCores) != p.RangeARM || x86.Space().RangeOf(conf.PExecutorCores) != p.RangeX86 {
		t.Fatal("cluster space profiles wrong")
	}
	lim := arm.Limits()
	if lim.TotalCores != 384 || lim.ContainerCores != 8 {
		t.Fatalf("ARM limits = %+v", lim)
	}
}

// Every listed name resolves to the cluster of that name, the empty name to
// the first (ARM), and anything else is an error — no silent default.
func TestClusterByName(t *testing.T) {
	names := ClusterNames()
	if len(names) != 2 || names[0] != "arm" || names[1] != "x86" {
		t.Fatalf("ClusterNames() = %v", names)
	}
	for _, name := range names {
		if cl, err := ClusterByName(name); err != nil || cl.Name != name {
			t.Fatalf("ClusterByName(%q) = %+v, %v", name, cl, err)
		}
	}
	if cl, err := ClusterByName(""); err != nil || cl.Name != "arm" {
		t.Fatalf(`ClusterByName("") = %+v, %v; want ARM`, cl, err)
	}
	if _, err := ClusterByName("sparc"); err == nil || err.Error() != `unknown cluster "sparc" (want arm or x86)` {
		t.Fatalf("unknown cluster error = %v", err)
	}
}

func TestDeterminismAcrossSimulators(t *testing.T) {
	for _, cl := range []*Cluster{ARM(), X86()} {
		s1 := New(cl, 42)
		s2 := New(cl, 42)
		c := cl.Space().Default()
		q := joinQuery()
		for i := 0; i < 10; i++ {
			r1 := runOneQuery(s1, q, c, 200)
			r2 := runOneQuery(s2, q, c, 200)
			if r1.Sec != r2.Sec || r1.GCSec != r2.GCSec {
				t.Fatalf("%s: run %d diverged: %v vs %v", cl.Name, i, r1.Sec, r2.Sec)
			}
		}
	}
}

func TestNoiselessIsDeterministic(t *testing.T) {
	cl := ARM()
	s := New(cl, 1)
	c := cl.Space().Default()
	q := joinQuery()
	a := noiselessQueryTime(s, q, c, 100)
	b := noiselessQueryTime(s, q, c, 100)
	if a != b {
		t.Fatalf("noiseless time not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("nonpositive time %v", a)
	}
}

func TestWithNoiseZero(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0), withRunNoise(0))
	c := cl.Space().Default()
	q := joinQuery()
	if runOneQuery(s, q, c, 100).Sec != runOneQuery(s, q, c, 100).Sec {
		t.Fatal("zero-noise runs differ")
	}
}

func TestRunAppAggregates(t *testing.T) {
	cl := X86()
	s := New(cl, 3, WithNoise(0), withRunNoise(0))
	app := &Application{Name: "mini", Queries: []Query{scanQuery(), joinQuery(), dimJoinQuery()}}
	c := cl.Space().Default()
	r := s.RunApp(app, c, 100)
	if len(r.Queries) != 3 {
		t.Fatalf("got %d query results", len(r.Queries))
	}
	var sum, gc float64
	for _, qr := range r.Queries {
		sum += qr.Sec
		gc += qr.GCSec
	}
	if math.Abs(sum-r.Sec) > 1e-9 || math.Abs(gc-r.GCSec) > 1e-9 {
		t.Fatal("AppResult totals do not match query sums")
	}
	if nl := s.NoiselessAppTime(app, c, 100); math.Abs(nl-r.Sec) > 1e-9 {
		t.Fatalf("NoiselessAppTime %v != noise-free RunApp %v", nl, r.Sec)
	}
}

func TestTimeGrowsWithDataSize(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	c := cl.Space().Default()
	for _, q := range []Query{scanQuery(), joinQuery(), dimJoinQuery()} {
		prev := 0.0
		for _, gb := range []float64{100, 200, 300, 400, 500} {
			tm := noiselessQueryTime(s, q, c, gb)
			if tm <= prev {
				t.Fatalf("%s: time %v at %vGB not greater than %v at previous size", q.Name, tm, gb, prev)
			}
			prev = tm
		}
	}
}

func TestSelectionInsensitiveJoinSensitive(t *testing.T) {
	cl := ARM()
	s := New(cl, 5)
	space := cl.Space()
	// Absolute CVs are dominated by how many deep-thrash corner configs the
	// random draw hits (QCSA's relative three-partition rule is what makes
	// classification robust to that); this fixed seed draws a
	// representative mix.
	rng := rand.New(rand.NewSource(23))
	var scanTimes, joinTimes []float64
	for i := 0; i < 60; i++ {
		c := space.Random(rng)
		scanTimes = append(scanTimes, runOneQuery(s, scanQuery(), c, 100).Sec)
		joinTimes = append(joinTimes, runOneQuery(s, joinQuery(), c, 100).Sec)
	}
	scanCV, joinCV := stat.CV(scanTimes), stat.CV(joinTimes)
	if scanCV > 0.35 {
		t.Fatalf("selection query CV = %v; want insensitive (< 0.35)", scanCV)
	}
	if joinCV < 0.45 {
		t.Fatalf("heavy join CV = %v; want sensitive (> 0.45)", joinCV)
	}
	if joinCV < 3*scanCV {
		t.Fatalf("join CV %v not clearly above selection CV %v", joinCV, scanCV)
	}
}

func TestMemoryPressureSlowsExecution(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := joinQuery()
	// Ample memory, generous partitions.
	good := space.Default()
	good[conf.PExecutorMemory] = 32
	good[conf.PExecutorCores] = 4
	good[conf.PExecutorInstances] = 96
	good[conf.PSQLShufflePartitions] = 800
	good[conf.PMemoryFraction] = 0.9
	good[conf.PMemoryStorageFraction] = 0.5
	good = space.Repair(good)
	// Starved memory, few partitions: per-task working set explodes.
	bad := good.Clone()
	bad[conf.PExecutorMemory] = 4
	bad[conf.PExecutorCores] = 8
	bad[conf.PExecutorInstances] = 48
	bad[conf.PSQLShufflePartitions] = 100
	bad[conf.PMemoryFraction] = 0.5
	bad[conf.PMemoryStorageFraction] = 0.9
	bad[conf.POffHeapEnabled] = 0
	bad = space.Repair(bad)

	gt := runOneQuery(s, q, good, 300)
	bt := runOneQuery(s, q, bad, 300)
	if bt.Sec < 3*gt.Sec {
		t.Fatalf("memory-starved run %.1fs not ≫ well-provisioned %.1fs", bt.Sec, gt.Sec)
	}
	if bt.MaxPressure <= gt.MaxPressure {
		t.Fatal("pressure did not increase under starved config")
	}
	if bt.SpillMB == 0 {
		t.Fatal("starved config did not spill")
	}
	if gt.SpillMB > bt.SpillMB {
		t.Fatal("good config spilled more than bad config")
	}
}

func TestGCTimeGrowsWithPressure(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := joinQuery()
	small := space.Default()
	small[conf.PExecutorMemory] = 4
	small[conf.PExecutorCores] = 8
	small[conf.PSQLShufflePartitions] = 100
	small[conf.POffHeapEnabled] = 0
	small = space.Repair(small)
	big := small.Clone()
	big[conf.PExecutorMemory] = 32
	big[conf.PSQLShufflePartitions] = 800
	big = space.Repair(big)
	rs, rb := runOneQuery(s, q, small, 300), runOneQuery(s, q, big, 300)
	if rs.GCSec <= rb.GCSec {
		t.Fatalf("GC under 4GB heap (%.1fs) not above 32GB heap (%.1fs)", rs.GCSec, rb.GCSec)
	}
	if rs.GCSec <= 0 || rb.GCSec <= 0 {
		t.Fatal("GC time must be positive")
	}
}

func TestOffHeapRelievesGC(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := joinQuery()
	base := space.Default()
	base[conf.PExecutorMemory] = 8
	base[conf.PExecutorCores] = 4
	base[conf.PSQLShufflePartitions] = 200
	base[conf.POffHeapEnabled] = 0
	base[conf.POffHeapSize] = 0
	base = space.Repair(base)
	withOff := base.Clone()
	withOff[conf.POffHeapEnabled] = 1
	withOff[conf.POffHeapSize] = 16384
	withOff = space.Repair(withOff)
	r0, r1 := runOneQuery(s, q, base, 300), runOneQuery(s, q, withOff, 300)
	if r1.Sec >= r0.Sec {
		t.Fatalf("off-heap memory did not help: %.1fs vs %.1fs", r1.Sec, r0.Sec)
	}
	if r1.GCSec >= r0.GCSec {
		t.Fatalf("off-heap memory did not reduce GC: %.1fs vs %.1fs", r1.GCSec, r0.GCSec)
	}
}

func TestBroadcastJoinThreshold(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := dimJoinQuery() // 4 MB dimension table
	lo := space.Default()
	lo[conf.PAutoBroadcastJoinThreshold] = 1024 // 1 MB: no broadcast
	lo = space.Repair(lo)
	hi := lo.Clone()
	hi[conf.PAutoBroadcastJoinThreshold] = 8192 // 8 MB: broadcast
	hi = space.Repair(hi)
	tLo, tHi := runOneQuery(s, q, lo, 200).Sec, runOneQuery(s, q, hi, 200).Sec
	if tHi >= tLo {
		t.Fatalf("broadcast join not faster: threshold 8MB %.1fs vs 1MB %.1fs", tHi, tLo)
	}
	// The fact-fact join's 9 GB small side must never broadcast.
	big := joinQuery()
	sLo, sHi := runOneQuery(s, big, lo, 200).Sec, runOneQuery(s, big, hi, 200).Sec
	if math.Abs(sLo-sHi) > 1e-9 {
		t.Fatal("threshold changed a non-broadcastable join")
	}
}

func TestShuffleCompressionTradeoff(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := joinQuery()
	// Ample slots so the shuffle is disk-bound (compression trades cheap
	// CPU for scarce disk bandwidth; under CPU-bound configs it can lose).
	on := space.Default()
	on[conf.PExecutorInstances] = 48
	on[conf.PExecutorCores] = 8
	on[conf.PExecutorMemory] = 32
	on[conf.PSQLShufflePartitions] = 800
	on[conf.PShuffleCompress] = 1
	on = space.Repair(on)
	off := on.Clone()
	off[conf.PShuffleCompress] = 0
	off = space.Repair(off)
	// For a disk-bound heavy shuffle, compression must win.
	if tOn, tOff := runOneQuery(s, q, on, 500).Sec, runOneQuery(s, q, off, 500).Sec; tOn >= tOff {
		t.Fatalf("shuffle compression not beneficial on heavy shuffle: on=%.1f off=%.1f", tOn, tOff)
	}
}

func TestMoreSlotsHelpCPUBoundWork(t *testing.T) {
	cl := ARM()
	s := New(cl, 1, WithNoise(0))
	space := cl.Space()
	q := joinQuery()
	few := space.Default()
	few[conf.PExecutorInstances] = 48
	few[conf.PExecutorCores] = 1
	few[conf.PExecutorMemory] = 32
	few[conf.PSQLShufflePartitions] = 800
	few = space.Repair(few)
	many := few.Clone()
	many[conf.PExecutorInstances] = 48
	many[conf.PExecutorCores] = 8
	many = space.Repair(many)
	tFew, tMany := runOneQuery(s, q, few, 300).Sec, runOneQuery(s, q, many, 300).Sec
	if tMany >= tFew {
		t.Fatalf("8× slots did not speed up: few=%.1f many=%.1f", tFew, tMany)
	}
}

func TestApplicationSubset(t *testing.T) {
	app := &Application{Name: "x", Queries: []Query{scanQuery(), joinQuery(), dimJoinQuery()}}
	names := app.QueryNames()
	if len(names) != 3 || names[1] != "heavyjoin" {
		t.Fatalf("QueryNames = %v", names)
	}
	sub := app.Subset(map[string]bool{"scan": true, "dimjoin": true})
	if len(sub.Queries) != 2 || sub.Queries[0].Name != "scan" || sub.Queries[1].Name != "dimjoin" {
		t.Fatalf("Subset = %v", sub.QueryNames())
	}
	if sub.Name != "x-RQA" {
		t.Fatalf("Subset name = %q", sub.Name)
	}
}

func TestQueryClassString(t *testing.T) {
	if Selection.String() != "selection" || Join.String() != "join" || Aggregation.String() != "aggregation" {
		t.Fatal("QueryClass.String wrong")
	}
	if QueryClass(99).String() != "unknown" {
		t.Fatal("unknown class string wrong")
	}
}

// Property: every valid configuration yields positive, finite times, GC no
// larger than total time, and non-negative shuffle/spill accounting.
func TestSimulatorInvariants(t *testing.T) {
	cl := X86()
	s := New(cl, 9, WithNoise(0))
	space := cl.Space()
	qs := []Query{scanQuery(), joinQuery(), dimJoinQuery()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := space.Random(rng)
		gb := 100 + rng.Float64()*400
		for _, q := range qs {
			r := runOneQuery(s, q, c, gb)
			if !(r.Sec > 0) || math.IsInf(r.Sec, 0) || math.IsNaN(r.Sec) {
				return false
			}
			if r.GCSec < 0 || r.GCSec >= r.Sec {
				return false
			}
			if r.ShuffleMB < 0 || r.SpillMB < 0 || r.MaxPressure < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
