// Package conf models the Spark / Spark SQL configuration space tuned by
// LOCAT: the 38 parameters of the paper's Table 2, with their defaults, their
// value ranges on the ARM cluster (Range A) and the x86 cluster (Range B),
// and the resource-consistency constraints of Section 5.12.
//
// A Config is a vector of parameter values in natural units (booleans are
// 0/1). A Space binds the parameter table to one cluster's ranges and
// resource limits and provides sampling, unit-cube encoding for model input,
// validation and repair.
package conf

// Type distinguishes numeric parameters from boolean switches.
type Type int

const (
	// Numeric parameters take integer or fractional values within a range.
	Numeric Type = iota
	// Bool parameters are true/false switches, stored as 1/0.
	Bool
)

// Range is an inclusive numeric value range.
type Range struct {
	Lo, Hi float64
}

// Contains reports whether v lies within the range.
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// Clamp returns v limited to the range.
func (r Range) Clamp(v float64) float64 {
	if v < r.Lo {
		return r.Lo
	}
	if v > r.Hi {
		return r.Hi
	}
	return v
}

// Width returns Hi - Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// at returns the value the share v of the way from Lo to Hi, v clamped to
// [0, 1]: a unit-cube coordinate decoded.
func (r Range) at(v float64) float64 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return r.Lo + v*r.Width()
}

// Param describes one tunable Spark or Spark SQL configuration parameter
// (one row of the paper's Table 2).
type Param struct {
	// Name is the full Spark property key, e.g. "spark.executor.memory".
	Name string
	// Desc is the one-line description from Table 2.
	Desc string
	// Type is Numeric or Bool.
	Type Type
	// Unit is the value unit for numeric parameters ("MB", "GB", "KB", "s",
	// "" for counts and fractions).
	Unit string
	// Default is the Spark default value (booleans: 1 = true).
	Default float64
	// RangeARM is "Range A" (four-node ARM cluster).
	RangeARM Range
	// RangeX86 is "Range B" (eight-node x86 cluster).
	RangeX86 Range
	// Resource marks parameters whose ranges derive from cluster resources
	// (starred in Table 2): cores and memory sizes.
	Resource bool
	// SQLLevel marks upper-level Spark SQL parameters (spark.sql.*).
	SQLLevel bool
	// Integer marks numeric parameters that only take whole values.
	Integer bool
}

// Index constants for the canonical parameter order. Having stable indices
// lets the simulator read configuration values without map lookups on the
// hot path.
const (
	PBroadcastBlockSize = iota
	PDefaultParallelism
	PDriverCores
	PDriverMemory
	PExecutorCores
	PExecutorInstances
	PExecutorMemory
	PExecutorMemoryOverhead
	PZstdBufferSize
	PZstdLevel
	PKryoBuffer
	PKryoBufferMax
	PLocalityWait
	PMemoryFraction
	PMemoryStorageFraction
	POffHeapSize
	PReducerMaxSizeInFlight
	PSchedulerReviveInterval
	PShuffleFileBuffer
	PShuffleNumConnections
	PShuffleBypassMergeThreshold
	PAutoBroadcastJoinThreshold
	PCartesianBufferThreshold
	PCodegenMaxFields
	PColumnarBatchSize
	PSQLShufflePartitions
	PMemoryMapThreshold
	PBroadcastCompress
	POffHeapEnabled
	PRDDCompress
	PShuffleCompress
	PShuffleSpillCompress
	PTwoLevelAggMap
	PColumnarCompressed
	PPartitionPruning
	PPreferSortMergeJoin
	PRetainGroupColumns
	PRadixSort
	// NumParams is the total parameter count (38, matching Table 2).
	NumParams
)

// params is the canonical Table 2 parameter list, in index order.
// Note: the paper's prose says "28 numeric and 10 non-numeric", but Table 2
// itself lists 27 numeric rows and 11 boolean rows (38 total); we follow the
// table.
var params = [NumParams]Param{
	PBroadcastBlockSize: {
		Name: "spark.broadcast.blockSize", Unit: "MB", Default: 4, Integer: true,
		Desc:     "Size of each piece of a block for TorrentBroadcastFactory",
		RangeARM: Range{1, 16}, RangeX86: Range{1, 16},
	},
	PDefaultParallelism: {
		Name: "spark.default.parallelism", Default: 200, Integer: true,
		Desc:     "Maximum number of partitions in a parent RDD for shuffle operations",
		RangeARM: Range{100, 1000}, RangeX86: Range{100, 1000},
	},
	PDriverCores: {
		Name: "spark.driver.cores", Default: 1, Resource: true, Integer: true,
		Desc:     "Number of cores to use for the driver process",
		RangeARM: Range{1, 8}, RangeX86: Range{1, 16},
	},
	PDriverMemory: {
		Name: "spark.driver.memory", Unit: "GB", Default: 1, Resource: true, Integer: true,
		Desc:     "Amount of memory to use for the driver process",
		RangeARM: Range{4, 32}, RangeX86: Range{4, 48},
	},
	PExecutorCores: {
		Name: "spark.executor.cores", Default: 1, Resource: true, Integer: true,
		Desc:     "How many CPU cores each executor process uses",
		RangeARM: Range{1, 8}, RangeX86: Range{1, 16},
	},
	PExecutorInstances: {
		Name: "spark.executor.instances", Default: 2, Integer: true,
		Desc:     "Total number of Executor processes used for the Spark job",
		RangeARM: Range{48, 384}, RangeX86: Range{9, 112},
	},
	PExecutorMemory: {
		Name: "spark.executor.memory", Unit: "GB", Default: 1, Resource: true, Integer: true,
		Desc:     "How much memory each executor process uses",
		RangeARM: Range{4, 32}, RangeX86: Range{4, 48},
	},
	PExecutorMemoryOverhead: {
		Name: "spark.executor.memoryOverhead", Unit: "MB", Default: 384, Resource: true, Integer: true,
		Desc:     "Additional memory size to be allocated per executor",
		RangeARM: Range{0, 32768}, RangeX86: Range{0, 49152},
	},
	PZstdBufferSize: {
		Name: "spark.io.compression.zstd.bufferSize", Unit: "KB", Default: 32, Integer: true,
		Desc:     "Buffer size used in Zstd compression",
		RangeARM: Range{16, 96}, RangeX86: Range{16, 96},
	},
	PZstdLevel: {
		Name: "spark.io.compression.zstd.level", Default: 1, Integer: true,
		Desc:     "Compression level for Zstd compression codec",
		RangeARM: Range{1, 5}, RangeX86: Range{1, 5},
	},
	PKryoBuffer: {
		Name: "spark.kryoserializer.buffer", Unit: "KB", Default: 64, Integer: true,
		Desc:     "Initial size of Kryo's serialization buffer",
		RangeARM: Range{32, 128}, RangeX86: Range{32, 128},
	},
	PKryoBufferMax: {
		Name: "spark.kryoserializer.buffer.max", Unit: "MB", Default: 64, Integer: true,
		Desc:     "Maximum allowable size of Kryo serialization buffer",
		RangeARM: Range{32, 128}, RangeX86: Range{32, 128},
	},
	PLocalityWait: {
		Name: "spark.locality.wait", Unit: "s", Default: 3, Integer: true,
		Desc:     "Wait time to launch a task in a data-local before in a less-local node",
		RangeARM: Range{1, 6}, RangeX86: Range{1, 6},
	},
	PMemoryFraction: {
		Name: "spark.memory.fraction", Default: 0.6,
		Desc:     "Fraction of (heap space - 300MB) used for execution and storage",
		RangeARM: Range{0.5, 0.9}, RangeX86: Range{0.5, 0.9},
	},
	PMemoryStorageFraction: {
		Name: "spark.memory.storageFraction", Default: 0.5,
		Desc:     "Amount of storage memory immune to eviction",
		RangeARM: Range{0.5, 0.9}, RangeX86: Range{0.5, 0.9},
	},
	POffHeapSize: {
		Name: "spark.memory.offHeap.size", Unit: "MB", Default: 0, Resource: true, Integer: true,
		Desc:     "Memory size which can be used for off-heap allocation",
		RangeARM: Range{0, 32768}, RangeX86: Range{0, 49152},
	},
	PReducerMaxSizeInFlight: {
		Name: "spark.reducer.maxSizeInFlight", Unit: "MB", Default: 48, Integer: true,
		Desc:     "Maximum size to fetch simultaneously from a reduce task",
		RangeARM: Range{24, 144}, RangeX86: Range{24, 144},
	},
	PSchedulerReviveInterval: {
		Name: "spark.scheduler.revive.interval", Unit: "s", Default: 1, Integer: true,
		Desc:     "Interval for the scheduler to revive the worker resource",
		RangeARM: Range{1, 5}, RangeX86: Range{1, 5},
	},
	PShuffleFileBuffer: {
		Name: "spark.shuffle.file.buffer", Unit: "KB", Default: 32, Integer: true,
		Desc:     "In-memory buffer size for each shuffle file output stream",
		RangeARM: Range{16, 96}, RangeX86: Range{16, 96},
	},
	PShuffleNumConnections: {
		Name: "spark.shuffle.io.numConnectionsPerPeer", Default: 1, Integer: true,
		Desc:     "Amount of connections between hosts that are reused",
		RangeARM: Range{1, 5}, RangeX86: Range{1, 5},
	},
	PShuffleBypassMergeThreshold: {
		Name: "spark.shuffle.sort.bypassMergeThreshold", Default: 200, Integer: true,
		Desc:     "Partition number to skip mapper side sorts",
		RangeARM: Range{100, 400}, RangeX86: Range{100, 400},
	},
	PAutoBroadcastJoinThreshold: {
		Name: "spark.sql.autoBroadcastJoinThreshold", Unit: "KB", Default: 1024, SQLLevel: true, Integer: true,
		Desc:     "Maximum size for a broadcasted table",
		RangeARM: Range{1024, 8192}, RangeX86: Range{1024, 8192},
	},
	PCartesianBufferThreshold: {
		Name: "spark.sql.cartesianProductExec.buffer.in.memory.threshold", Default: 4096, SQLLevel: true, Integer: true,
		Desc:     "Row numbers of Cartesian cache",
		RangeARM: Range{1024, 8192}, RangeX86: Range{1024, 8192},
	},
	PCodegenMaxFields: {
		Name: "spark.sql.codegen.maxFields", Default: 100, SQLLevel: true, Integer: true,
		Desc:     "Maximum field supported before activating the entire stage codegen",
		RangeARM: Range{50, 200}, RangeX86: Range{50, 200},
	},
	PColumnarBatchSize: {
		Name: "spark.sql.inMemoryColumnarStorage.batchSize", Default: 10000, SQLLevel: true, Integer: true,
		Desc:     "Size of the batch used for column caching",
		RangeARM: Range{5000, 20000}, RangeX86: Range{5000, 20000},
	},
	PSQLShufflePartitions: {
		Name: "spark.sql.shuffle.partitions", Default: 200, SQLLevel: true, Integer: true,
		Desc:     "Default partition number when shuffling data for joins or aggregations",
		RangeARM: Range{100, 1000}, RangeX86: Range{100, 1000},
	},
	PMemoryMapThreshold: {
		Name: "spark.storage.memoryMapThreshold", Unit: "MB", Default: 1, Integer: true,
		Desc:     "Mapped memory size when reading a block from the disk",
		RangeARM: Range{1, 10}, RangeX86: Range{1, 10},
	},
	PBroadcastCompress: {
		Name: "spark.broadcast.compress", Type: Bool, Default: 1,
		Desc: "Whether to compress broadcast variables before sending them",
	},
	POffHeapEnabled: {
		Name: "spark.memory.offHeap.enabled", Type: Bool, Default: 1,
		Desc: "Whether to use off-heap memory for certain operations",
	},
	PRDDCompress: {
		Name: "spark.rdd.compress", Type: Bool, Default: 1,
		Desc: "Whether to compress serialized RDD partitions",
	},
	PShuffleCompress: {
		Name: "spark.shuffle.compress", Type: Bool, Default: 1,
		Desc: "Whether to compress map output files",
	},
	PShuffleSpillCompress: {
		Name: "spark.shuffle.spill.compress", Type: Bool, Default: 1,
		Desc: "Whether to compress data spilled during shuffles",
	},
	PTwoLevelAggMap: {
		Name: "spark.sql.codegen.aggregate.map.twolevel.enable", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to enable two-level aggregate hash mapping",
	},
	PColumnarCompressed: {
		Name: "spark.sql.inMemoryColumnarStorage.compressed", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to compress each column based on data",
	},
	PPartitionPruning: {
		Name: "spark.sql.inMemoryColumnarStorage.partitionPruning", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to prune partitions in memory",
	},
	PPreferSortMergeJoin: {
		Name: "spark.sql.join.preferSortMergeJoin", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to use sort-merge join instead of shuffle hash join",
	},
	PRetainGroupColumns: {
		Name: "spark.sql.retainGroupColumns", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to retain group columns",
	},
	PRadixSort: {
		Name: "spark.sql.sort.enableRadixSort", Type: Bool, Default: 1, SQLLevel: true,
		Desc: "Whether to use radix sort",
	},
}

func init() {
	// Boolean parameters all range over {0, 1} on both clusters.
	for i := range params {
		if params[i].Type == Bool {
			params[i].RangeARM = Range{0, 1}
			params[i].RangeX86 = Range{0, 1}
			params[i].Integer = true
		}
	}
}

// Params returns the canonical 38-parameter table (a copy).
func Params() []Param {
	out := make([]Param, NumParams)
	copy(out, params[:])
	return out
}

// ParamByName returns the parameter with the given Spark property key and
// its index, or ok=false if it is not in Table 2.
func ParamByName(name string) (p Param, idx int, ok bool) {
	for i, q := range params {
		if q.Name == name {
			return q, i, true
		}
	}
	return Param{}, -1, false
}
