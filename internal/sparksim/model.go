package sparksim

import (
	"math"

	"locat/internal/conf"
)

// env holds the execution environment derived from one configuration on one
// cluster — everything the per-stage cost formulas need, computed once per
// application run.
type env struct {
	slots            float64 // total concurrent task slots
	instances        float64
	cores            float64
	execMemPerTaskMB float64 // execution-memory share of one task (heap + off-heap)
	heapMB           float64
	offHeapMB        float64 // 0 when spark.memory.offHeap.enabled is false
	heapShare        float64 // fraction of a task's working set living on-heap
	coreSpeed        float64
	aggDiskMBps      float64 // cluster-aggregate disk bandwidth (shuffle-write adjusted)
	aggNetMBps       float64 // cluster-aggregate network bandwidth (connection adjusted)
	crossNodeFrac    float64 // fraction of shuffle bytes crossing the network

	shufflePartitions float64
	scanParallelism   float64

	comprRatio    float64 // shuffle wire bytes / raw bytes (1.0 when compression off)
	comprCPUperMB float64 // compress+decompress CPU seconds per raw MB (both sides)
	spillRatio    float64 // spill bytes on disk / raw bytes (spill compression)

	driverCores     float64
	waveOverheadSec float64 // scheduling + locality cost per task wave
	fixedPerQuery   float64 // driver/planning overhead added to every query

	sortMerge         bool // spark.sql.join.preferSortMergeJoin
	radixSort         bool
	twoLevelAgg       bool
	bypassThreshold   float64
	broadcastKB       float64 // spark.sql.autoBroadcastJoinThreshold
	broadcastCompress bool
	broadcastBlockMB  float64
	maxInFlightMB     float64

	batchCPUFactor     float64 // columnar batch-size CPU bowl (scan stages)
	scanCPUperMB       float64 // base scan/decode CPU s per MB per unit CPUWeight
	procCPUperMB       float64 // base join/agg probe CPU s per MB per unit CPUWeight
	sortCPUperMB       float64 // map-side sort CPU s per MB
	retainGroupFactor  float64 // aggregation shuffle inflation from retained group cols
	columnarScanFactor float64 // scan byte reduction from columnar compression
	gcHeapPauseFactor  float64 // extra GC fraction from very large heaps
}

// deriveEnv computes the execution environment for configuration c on
// cluster cl. The constants encode the simulator's hardware model; they were
// calibrated so that the paper's qualitative results (Section 5) emerge at
// the paper's data scales.
func deriveEnv(cl *Cluster, c conf.Config) env {
	var e env
	e.instances = c[conf.PExecutorInstances]
	e.cores = c[conf.PExecutorCores]
	e.slots = min(e.instances*e.cores, float64(cl.TotalCores()))
	e.coreSpeed = cl.CoreSpeed

	e.heapMB = c[conf.PExecutorMemory] * 1024
	if c.Bool(conf.POffHeapEnabled) {
		e.offHeapMB = c[conf.POffHeapSize]
	}
	// Unified memory: (heap - 300 MB) × memory.fraction. The storage region
	// (storageFraction) is immune to eviction (Table 2), but execution can
	// borrow about half of it while cached blocks are cold — Spark's
	// unified-memory borrowing.
	memFrac := c[conf.PMemoryFraction]
	storFrac := c[conf.PMemoryStorageFraction]
	heapExec := (e.heapMB - 300) * memFrac * (1 - 0.5*storFrac)
	if heapExec < 64 {
		heapExec = 64
	}
	e.execMemPerTaskMB = (heapExec + 0.6*e.offHeapMB) / max(1, e.cores)
	e.heapShare = heapExec / (heapExec + 0.6*e.offHeapMB)

	// Aggregate bandwidths. Small shuffle file buffers fragment writes and
	// cost effective disk bandwidth; extra connections per peer help keep
	// the pipes full.
	fileBufKB := c[conf.PShuffleFileBuffer]
	e.aggDiskMBps = float64(cl.SlaveNodes) * cl.DiskMBps * (0.80 + 0.20*min(1, fileBufKB/64))
	numConn := c[conf.PShuffleNumConnections]
	e.aggNetMBps = float64(cl.SlaveNodes) * cl.NetMBps * (0.88 + 0.03*(numConn-1))
	e.crossNodeFrac = float64(cl.SlaveNodes-1) / float64(cl.SlaveNodes)

	e.shufflePartitions = c[conf.PSQLShufflePartitions]
	e.scanParallelism = c[conf.PDefaultParallelism]

	if c.Bool(conf.PShuffleCompress) {
		lvl := c[conf.PZstdLevel]
		e.comprRatio = 0.50 - 0.04*lvl
		bufPenalty := 1.0 + 0.2*max(0, (32-c[conf.PZstdBufferSize])/32)
		e.comprCPUperMB = (0.0018 + 0.0008*lvl) * bufPenalty / e.coreSpeed
	} else {
		e.comprRatio = 1
	}
	if c.Bool(conf.PShuffleSpillCompress) {
		e.spillRatio = 0.55
	} else {
		e.spillRatio = 1
	}

	// Per-wave overhead: task launch, scheduling and the data-locality wait
	// (spark.locality.wait delays task launch when local slots are busy).
	reviveLag := 0.015 * (c[conf.PSchedulerReviveInterval] - 1)
	e.waveOverheadSec = 0.08 + 0.04*c[conf.PLocalityWait]*0.3 + reviveLag

	// Driver-side fixed cost per query: planning, codegen, collecting
	// results. More driver cores parse/schedule faster; tiny heaps make the
	// driver GC during plan broadcast.
	e.driverCores = max(1, c[conf.PDriverCores])
	driverFactor := 1.0 + 0.5/e.driverCores
	if c[conf.PDriverMemory] < 8 {
		driverFactor += 0.1
	}
	e.fixedPerQuery = 0.4 * driverFactor

	e.sortMerge = c.Bool(conf.PPreferSortMergeJoin)
	e.radixSort = c.Bool(conf.PRadixSort)
	e.twoLevelAgg = c.Bool(conf.PTwoLevelAggMap)
	e.bypassThreshold = c[conf.PShuffleBypassMergeThreshold]
	e.broadcastKB = c[conf.PAutoBroadcastJoinThreshold]
	e.broadcastCompress = c.Bool(conf.PBroadcastCompress)
	e.broadcastBlockMB = c[conf.PBroadcastBlockSize]
	e.maxInFlightMB = c[conf.PReducerMaxSizeInFlight]

	// CPU cost coefficients (seconds per MB per core at ARM speed).
	e.scanCPUperMB = 0.009 / e.coreSpeed // ≈110 MB/s/core Parquet decode + filter
	e.procCPUperMB = 0.022 / e.coreSpeed // ≈45 MB/s/core join probe / agg update
	e.sortCPUperMB = 0.004 / e.coreSpeed
	if e.radixSort {
		e.sortCPUperMB *= 0.92
	}

	if c.Bool(conf.PRetainGroupColumns) {
		e.retainGroupFactor = 1.04
	} else {
		e.retainGroupFactor = 1.0
	}
	if c.Bool(conf.PColumnarCompressed) {
		e.columnarScanFactor = 0.80
	} else {
		e.columnarScanFactor = 1.0
	}
	if c.Bool(conf.PPartitionPruning) {
		e.columnarScanFactor *= 0.96
	}
	// In-memory columnar batch size: too small → per-batch overhead, too
	// large → cache misses. Mild quadratic bowl around ~12k rows, applied
	// to scan CPU only (the disk path is unaffected by batching).
	batch := c[conf.PColumnarBatchSize]
	e.batchCPUFactor = 1 + 0.015*math.Pow((batch-12000)/8000, 2)

	// Codegen falls back to interpreted mode for very wide plans when
	// maxFields is small; that penalty depends on the query's CPUWeight, so
	// it lives in simulateQuery.

	// Very large heaps lengthen individual stop-the-world pauses
	// superlinearly (full-GC cost scales with live-set size): the optimal
	// heap is a band, not "as large as possible".
	e.gcHeapPauseFactor = 0.08 * math.Pow(e.heapMB/(32*1024), 1.5)
	return e
}

// stageCost is the latency contribution of one stage plus the bookkeeping
// the GC model and the analysis figures need.
type stageCost struct {
	sec        float64
	cpuWallSec float64 // wall-clock CPU busy time (GC applies to this)
	pressure   float64 // working set / execution memory per task
	shuffleMB  float64
	spillMB    float64

	// Component view (seconds), for Explain: the bound resource wins.
	diskSec, netSec, overheadSec, tailSec float64
	thrashFactor                          float64
	waves                                 int
}

// scanStage models the leaf stage: columnar scan + filter + project.
// Selections are bounded below by aggregate disk bandwidth, which is why
// they are configuration-insensitive (Section 5.11).
func scanStage(e *env, q *Query, scanMB float64, maxFieldsPenalty float64) stageCost {
	readMB := scanMB * e.columnarScanFactor
	tasks := max(math.Ceil(readMB/128), 1)
	if q.Class != Selection {
		// Wide plans re-partition their scan output; default.parallelism
		// bounds the parent RDD partition count.
		tasks = max(tasks, e.scanParallelism*0.25)
	}
	slotsEff := min(e.slots, tasks)
	diskT := readMB / e.aggDiskMBps
	cpuAgg := readMB * e.scanCPUperMB * q.CPUWeight * maxFieldsPenalty * e.batchCPUFactor
	waves := math.Ceil(tasks / e.slots)
	// Wave quantization: a stage occupies waves × slots slot-intervals even
	// when the last wave is nearly empty, so CPU-bound stages waste the
	// idle slots (the classic "partitions should be a small multiple of
	// total cores" Spark guideline).
	waveEff := tasks / (waves * min(e.slots, tasks))
	if waveEff > 1 {
		waveEff = 1
	}
	if waveEff < 0.6 {
		waveEff = 0.6 // the scheduler back-fills part of the idle wave
	}
	cpuT := cpuAgg / slotsEff / waveEff
	t := max(diskT, cpuT) + waves*e.waveOverheadSec
	return stageCost{
		sec: t, cpuWallSec: cpuT, diskSec: diskT,
		overheadSec: waves * e.waveOverheadSec, waves: int(waves), thrashFactor: 1,
	}
}

// shuffleStage models one wide stage: map-side sort/compress/write, network
// fetch, and reduce-side join/aggregate, with spill and memory thrash when
// the per-task working set exceeds its execution-memory share.
func shuffleStage(e *env, q *Query, shufMB float64) stageCost {
	parts := e.shufflePartitions
	taskMB := shufMB / parts

	// In-memory expansion of deserialized rows; hash joins hold build-side
	// hash tables and expand further.
	expansion := 6.5
	procCPU := e.procCPUperMB * q.CPUWeight
	hashJoin := q.Class == Join && !e.sortMerge
	if hashJoin {
		expansion *= 1.25
		procCPU *= 0.85
	}
	if q.Class == Aggregation {
		// Hash-aggregation maps expand with group cardinality.
		expansion *= 1.30
		if e.twoLevelAgg {
			procCPU *= 0.92
		}
	}
	if q.Class == Aggregation {
		shufMB *= e.retainGroupFactor
	}

	workingMB := taskMB * expansion
	pressure := workingMB / e.execMemPerTaskMB

	// Spill: external sort/aggregation writes extra passes to disk once the
	// working set exceeds execution memory. Multi-pass merges grow with the
	// overcommit factor.
	var spillMB float64
	if pressure > 1 {
		passes := min(3, math.Log2(pressure)+1)
		spillMB = shufMB * passes * e.spillRatio
	}

	// Map-side sort is skipped when the partition count is at most the
	// bypass-merge threshold (and the op needs no map-side ordering).
	sortCPU := e.sortCPUperMB
	if parts <= e.bypassThreshold && q.Class == Join && !e.sortMerge {
		sortCPU *= 0.3
	}

	wireMB := shufMB * e.comprRatio
	diskT := (wireMB*2 + spillMB*2) / e.aggDiskMBps
	netT := wireMB * e.crossNodeFrac / e.aggNetMBps
	// Reducers with tiny in-flight windows cannot keep the network busy.
	if e.maxInFlightMB < taskMB*e.comprRatio {
		netT *= 1 + 0.25*min(1, 1-e.maxInFlightMB/(taskMB*e.comprRatio))
	}

	cpuAgg := shufMB * (2*e.comprCPUperMB + sortCPU + procCPU)
	if spillMB > 0 {
		cpuAgg += spillMB * e.comprCPUperMB // re-serialize spilled runs
	}
	slotsEff := min(e.slots, parts)
	waves := math.Ceil(parts / e.slots)
	// Wave quantization (see scanStage): mismatched partition counts leave
	// the last wave mostly idle.
	waveEff := parts / (waves * slotsEff)
	if waveEff > 1 {
		waveEff = 1
	}
	if waveEff < 0.6 {
		waveEff = 0.6 // the scheduler back-fills part of the idle wave
	}
	cpuT := cpuAgg / slotsEff / waveEff

	// Driver-side task dispatch: every task costs scheduler time, divided
	// over the driver cores — over-partitioning is not free.
	dispatch := parts * 0.002 / e.driverCores

	t := max(diskT, max(netT, cpuT)) + waves*e.waveOverheadSec + dispatch

	// Straggler tail: the stage ends when the most skewed task does. A
	// skewed key's partition holds ≈(1 + 2.5·Skew)× the average bytes, and
	// that task's extra work is serial — so coarser partitioning (fewer,
	// fatter partitions) directly lengthens the tail. This is the main
	// reason spark.sql.shuffle.partitions tops the paper's Table 3.
	serialPerMB := procCPU + sortCPU + 2*e.comprCPUperMB
	tail := q.Skew * 2.5 * taskMB * serialPerMB
	t += tail

	// Memory thrash: as the working set overcommits its execution-memory
	// share, operators degrade smoothly from extra spill passes into
	// repeated OOM-retry cycles (the paper's "too small value may even
	// lead to OOM errors"; failed tasks are retried and a stage retry
	// re-runs its whole task set). This is the heavy tail that makes
	// shuffle-bound queries score extreme CVs under random configurations
	// (Q72 reaches CV ≈ 3.5 in Fig. 8).
	coef := 0.40
	if hashJoin || q.Class == Aggregation {
		coef = 0.60 // hash tables cannot spill incrementally; cliffs are steeper
	}
	thrash := 1 + min(coef*pressure*pressure, 49)
	t *= thrash

	return stageCost{
		sec: t, cpuWallSec: cpuT, pressure: pressure, shuffleMB: shufMB, spillMB: spillMB,
		diskSec: diskT, netSec: netT, tailSec: tail,
		overheadSec: waves*e.waveOverheadSec + dispatch, waves: int(waves), thrashFactor: thrash,
	}
}
