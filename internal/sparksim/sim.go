package sparksim

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"locat/internal/conf"
	"locat/internal/stat"
)

// QueryResult is the outcome of executing one query once.
type QueryResult struct {
	// Name is the query name.
	Name string
	// Sec is the end-to-end query latency in seconds (includes GCSec).
	Sec float64
	// GCSec is the JVM garbage-collection stall time included in Sec.
	GCSec float64
	// ShuffleMB is the total bytes shuffled across all wide stages.
	ShuffleMB float64
	// SpillMB is the total bytes spilled to disk.
	SpillMB float64
	// MaxPressure is the peak task working-set / execution-memory ratio.
	MaxPressure float64
}

// AppResult is the outcome of executing an application (all queries, in
// order) once under a single configuration.
type AppResult struct {
	// Sec is the total application latency in seconds.
	Sec float64
	// GCSec is the total GC stall time.
	GCSec float64
	// Queries holds the per-query results in execution order.
	Queries []QueryResult
}

// Simulator executes applications on a modeled cluster. Runs are stochastic
// — a multiplicative lognormal per-query factor models task-level variance,
// and a second per-run factor models whole-cluster state (page cache, JIT
// warmth, co-located load) that shifts an entire application execution.
//
// Every run draws its noise from a private deterministic stream seeded by
// (simulator seed, run index) — the stream of a fresh
// rand.NewSource(stat.SplitSeed(seed, idx)), produced by a pooled stat.Source that
// computes a seed word only when a draw reads it; the run index is claimed
// from an atomic counter (RunApp) or fixed explicitly (RunAppAt against a
// ReserveRuns block). The i-th run of a simulator is therefore fully
// determined by the seed and i, independent of execution order or
// interleaving: two simulators with the same seed driven
// identically produce identical results, concurrent RunApp calls are
// race-free, and a parallel driver that reserves a block of indices
// reproduces the serial call sequence bit-for-bit.
//
// A run costs its arithmetic: the hardware model (deriveEnv) is evaluated
// once per run and shared by every query, and seeding is O(1).
type Simulator struct {
	cluster  *Cluster
	space    *conf.Space
	noise    float64
	runNoise float64
	seed     int64
	runs     atomic.Uint64 // next unclaimed run index
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithNoise sets the per-query noise (lognormal sigma). The default is
// 0.15; zero makes queries deterministic up to the per-run factor.
func WithNoise(sigma float64) Option {
	return func(s *Simulator) { s.noise = sigma }
}

// New returns a simulator for the given cluster, seeded for reproducibility.
func New(cluster *Cluster, seed int64, opts ...Option) *Simulator {
	s := &Simulator{
		cluster:  cluster,
		space:    cluster.Space(),
		noise:    0.15,
		runNoise: 0.08,
		seed:     seed,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Space returns the configuration space bound to the cluster.
func (s *Simulator) Space() *conf.Space { return s.space }

// ReserveRuns atomically claims a contiguous block of n run indices and
// returns the first. A parallel driver reserves one block per batch and
// executes RunAppAt(first+i, …) for the i-th item; because each index owns
// an independent noise stream, the results match a serial loop of RunApp
// calls (which claims the same indices one at a time) exactly.
func (s *Simulator) ReserveRuns(n int) uint64 {
	if n <= 0 {
		panic("sparksim: ReserveRuns of non-positive count")
	}
	return s.runs.Add(uint64(n)) - uint64(n)
}

// rngPool recycles the generators runs draw their noise from: a source is
// 7.3 KB, and a run would otherwise allocate one.
var rngPool = sync.Pool{New: func() any { return rand.New(stat.NewSource(0)) }}

// runRNG returns the private noise stream of run index idx, for the caller
// to put back in rngPool once the run has drawn from it. Seeding a
// stat.Source invalidates every word the previous run left, so the stream is
// that of a fresh rand.NewSource(stat.SplitSeed(seed, idx)) at the cost of
// the words read.
func (s *Simulator) runRNG(idx uint64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(stat.SplitSeed(s.seed, idx))
	return rng
}

// stageDecay is the share of a wide stage's bytes the next one shuffles;
// decays[k] is math.Pow(stageDecay, k).
const stageDecay = 0.45

var decays = func() (p [8]float64) {
	for k := range p {
		p[k] = math.Pow(stageDecay, float64(k))
	}
	return p
}()

// decayPow returns math.Pow(stageDecay, k), from the table where it can.
func decayPow(k int) float64 {
	if k < len(decays) {
		return decays[k]
	}
	return math.Pow(stageDecay, float64(k))
}

// runQuery executes one query in environment e, drawing task-level noise
// from rng.
func (s *Simulator) runQuery(rng *rand.Rand, e *env, q *Query, c conf.Config, dataGB float64) QueryResult {
	r := simulateQuery(e, q, c, dataGB, nil)
	if s.noise > 0 {
		f := math.Exp(rng.NormFloat64() * s.noise)
		r.Sec *= f
		r.GCSec *= f
	}
	return r
}

// RunApp executes every query of the application in order under
// configuration c and returns per-query and total results. One per-run
// cluster-state factor scales the whole execution on top of the per-query
// noise. The call claims the next run index; safe for concurrent use.
func (s *Simulator) RunApp(app *Application, c conf.Config, dataGB float64) AppResult {
	return s.RunAppAt(s.ReserveRuns(1), app, c, dataGB, nil)
}

// RunAppAt executes the application as run index idx without touching the
// run counter: the per-run cluster-state factor and every query's noise come
// from the index's private stream. The per-query results are appended to
// into[:0], so a caller that passes the previous result's Queries back runs
// without allocating; nil allocates them. Safe for concurrent use.
func (s *Simulator) RunAppAt(idx uint64, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	rng := s.runRNG(idx)
	defer rngPool.Put(rng)
	return s.runApp(rng, app, c, dataGB, into)
}

// runApp executes the application drawing all of its noise from rng and
// appends the per-query results to into[:0]. The environment depends on the
// cluster and c only, so every query shares one.
func (s *Simulator) runApp(rng *rand.Rand, app *Application, c conf.Config, dataGB float64, into []QueryResult) AppResult {
	e := deriveEnv(s.cluster, c)
	runFactor := 1.0
	if s.runNoise > 0 {
		runFactor = math.Exp(rng.NormFloat64() * s.runNoise)
	}
	if into == nil {
		into = make([]QueryResult, 0, len(app.Queries))
	}
	out := AppResult{Queries: into[:0]}
	for i := range app.Queries {
		r := s.runQuery(rng, &e, &app.Queries[i], c, dataGB)
		r.Sec *= runFactor
		r.GCSec *= runFactor
		out.Sec += r.Sec
		out.GCSec += r.GCSec
		out.Queries = append(out.Queries, r)
	}
	return out
}

// NoiselessAppTime returns the deterministic total application latency.
func (s *Simulator) NoiselessAppTime(app *Application, c conf.Config, dataGB float64) float64 {
	e := deriveEnv(s.cluster, c)
	var t float64
	for i := range app.Queries {
		t += simulateQuery(&e, &app.Queries[i], c, dataGB, nil).Sec
	}
	return t
}

// simulateQuery runs the analytical cost model for one query: the one walk
// over its stages. A non-nil bd also receives the per-stage components
// (Explain); runs pass nil.
func simulateQuery(e *env, q *Query, c conf.Config, dataGB float64, bd *Breakdown) QueryResult {
	scanMB := dataGB * 1024 * q.InputFrac

	// Codegen fallback penalty for wide plans with a small maxFields cap.
	maxFieldsPenalty := 1.0
	if c[conf.PCodegenMaxFields] < 100*q.CPUWeight {
		maxFieldsPenalty = 1.06
	}

	res := QueryResult{Name: q.Name}
	var totalSec, cpuWall, maxPressure, bcT float64

	sc := scanStage(e, q, scanMB, maxFieldsPenalty)
	totalSec += sc.sec
	cpuWall += sc.cpuWallSec
	if bd != nil {
		bd.Stages = append(bd.Stages, toStageCost("scan", sc))
	}

	// Broadcast-join decision: the (scaled) small table must fit under
	// spark.sql.autoBroadcastJoinThreshold (KB).
	broadcast := false
	if q.Class == Join && q.SmallTableMB > 0 {
		smallMB := q.SmallTableMB
		if !q.DimSmall {
			smallMB *= dataGB / 100
		}
		if smallMB*1024 <= e.broadcastKB {
			broadcast = true
			// Driver ships the table to every executor.
			bcMB := smallMB
			if e.broadcastCompress {
				bcMB *= 0.5
			}
			bcT = bcMB * e.instances / e.aggNetMBps
			bcT += (bcMB / e.broadcastBlockMB) * 0.0004 // per-block handling
			totalSec += bcT
		}
	}

	shufMB := scanMB * q.ShuffleFrac
	for st := 1; st < q.Stages; st++ {
		mb := shufMB * decayPow(st-1)
		if st == 1 && broadcast {
			// The big side stays map-local; only partial aggregates move.
			mb *= 0.12
		}
		cost := shuffleStage(e, q, mb)
		totalSec += cost.sec
		cpuWall += cost.cpuWallSec
		res.ShuffleMB += cost.shuffleMB
		res.SpillMB += cost.spillMB
		if cost.pressure > maxPressure {
			maxPressure = cost.pressure
		}
		if bd != nil {
			bd.Stages = append(bd.Stages, toStageCost("shuffle", cost))
		}
	}

	// JVM GC stall: grows superlinearly with heap pressure, plus a pause
	// term for very large heaps. Off-heap memory shields its share of the
	// working set from the collector.
	effPressure := maxPressure * e.heapShare
	gcFrac := 0.03 + 0.11*math.Pow(min(effPressure, 4), 1.8) + e.gcHeapPauseFactor
	gc := cpuWall * gcFrac

	res.Sec = totalSec + gc + q.FixedSec + e.fixedPerQuery
	res.GCSec = gc
	res.MaxPressure = maxPressure
	if bd != nil {
		// The broadcast transfer is no stage; the breakdown books it with
		// the fixed cost so that stages + GC + fixed make the total.
		bd.Query, bd.Broadcast = q.Name, broadcast
		bd.GCSec, bd.FixedSec, bd.TotalSec = gc, q.FixedSec+e.fixedPerQuery+bcT, res.Sec
	}
	return res
}
