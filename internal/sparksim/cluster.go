// Package sparksim is an analytical simulator of Spark SQL application
// execution on a cluster. It stands in for the paper's two physical clusters
// and Spark 2.4.5 deployment, so every figure reproduces from a seed without
// a cluster: given a query's profile, a configuration of the 38 Table 2
// parameters, and an input data size, it produces a deterministic (seeded)
// end-to-end latency, together with the garbage-collection time and shuffle
// statistics the paper's analysis sections report.
//
// The model follows the Spark execution pipeline: a query is a DAG of
// stages; each stage runs a set of tasks in waves over the executor slots
// granted by spark.executor.instances × spark.executor.cores; stage cost is
// the maximum of the aggregate disk, network and CPU demands, plus
// per-wave scheduling overhead, a straggler tail, spill I/O when a task's
// working set exceeds its execution-memory share, and a JVM GC stall that
// grows with heap pressure.
package sparksim

import (
	"fmt"

	"locat/internal/conf"
)

// Cluster describes the hardware LOCAT tunes for. Only slave (worker) nodes
// run executors; the master runs the driver.
type Cluster struct {
	// Name is a short label ("arm", "x86").
	Name string
	// Profile selects the Table 2 range column for this cluster.
	Profile conf.ClusterProfile
	// SlaveNodes is the number of worker nodes.
	SlaveNodes int
	// CoresPerNode is the executor-usable core count per worker.
	CoresPerNode int
	// MemPerNodeMB is the executor-usable memory per worker in MB.
	MemPerNodeMB int
	// CoreSpeed is the relative per-core compute speed (1.0 = ARM baseline).
	CoreSpeed float64
	// DiskMBps is the sequential disk bandwidth per node (MB/s).
	DiskMBps float64
	// NetMBps is the network bandwidth per node (MB/s).
	NetMBps float64
	// ContainerCores and ContainerMemMB are the Yarn per-container caps.
	ContainerCores int
	ContainerMemMB int
}

// ARM returns the paper's four-node KUNPENG ARM cluster: one master plus
// three slaves, each with 4×32 = 128 cores and 512 GB, for 384
// executor-usable cores and 1.5 TB of executor memory.
func ARM() *Cluster {
	return &Cluster{
		Name:           "arm",
		Profile:        conf.ProfileARM,
		SlaveNodes:     3,
		CoresPerNode:   128,
		MemPerNodeMB:   512 * 1024,
		CoreSpeed:      1.0,
		DiskMBps:       1200,
		NetMBps:        1250, // 10 GbE
		ContainerCores: 8,
		ContainerMemMB: 64 * 1024,
	}
}

// X86 returns the paper's eight-node Xeon cluster: one master plus seven
// slaves, each with 2×10 = 20 cores and 64 GB, for 140 executor-usable
// cores and 448 GB of executor memory.
func X86() *Cluster {
	return &Cluster{
		Name:           "x86",
		Profile:        conf.ProfileX86,
		SlaveNodes:     7,
		CoresPerNode:   20,
		MemPerNodeMB:   64 * 1024,
		CoreSpeed:      1.55, // Xeon Silver core ≈ 1.55× a KUNPENG 920 core here
		DiskMBps:       900,
		NetMBps:        1250,
		ContainerCores: 16,
		ContainerMemMB: 56 * 1024,
	}
}

// clusters are the paper's two clusters, the default one first.
var clusters = []func() *Cluster{ARM, X86}

// ClusterNames returns the names ClusterByName resolves, the default first.
func ClusterNames() []string {
	var names []string
	for _, newCluster := range clusters {
		names = append(names, newCluster().Name)
	}
	return names
}

// ClusterByName returns the named cluster; the empty name is the default.
// The error carries no package prefix: every caller reports it under its own.
func ClusterByName(name string) (*Cluster, error) {
	for i, newCluster := range clusters {
		if cl := newCluster(); cl.Name == name || (name == "" && i == 0) {
			return cl, nil
		}
	}
	return nil, fmt.Errorf("unknown cluster %q (want arm or x86)", name)
}

// TotalCores returns the executor-usable core total.
func (c *Cluster) TotalCores() int { return c.SlaveNodes * c.CoresPerNode }

// TotalMemMB returns the executor-usable memory total in MB.
func (c *Cluster) TotalMemMB() int { return c.SlaveNodes * c.MemPerNodeMB }

// Limits returns the resource limits used to bound configuration repair.
func (c *Cluster) Limits() conf.ResourceLimits {
	return conf.ResourceLimits{
		ContainerCores: c.ContainerCores,
		ContainerMemMB: c.ContainerMemMB,
		TotalCores:     c.TotalCores(),
		TotalMemMB:     c.TotalMemMB(),
	}
}

// Space returns the Table 2 configuration space bound to this cluster's
// ranges and limits.
func (c *Cluster) Space() *conf.Space {
	return conf.NewSpace(c.Profile, c.Limits())
}
