package server

import (
	"ramcloud/internal/logstore"
	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
)

// Costs are the calibrated CPU costs of the server's request paths. They
// substitute for the physical Xeon X3440: each constant is fitted to the
// paper's measurements (see internal/core/calibration.go for the fitting
// evidence).
type Costs struct {
	// Dispatch is the per-request cost on the dispatch thread. It
	// serializes all requests entering a server and sets the single-server
	// throughput ceiling (~372 Kop/s in the paper).
	Dispatch sim.Duration

	// Read is the worker cost of a read: hash-table lookup plus reply
	// construction.
	Read sim.Duration

	// WriteBase is the worker cost of a write at zero contention: log
	// append, hash-table update, version bump.
	WriteBase sim.Duration

	// WriteContention is the extra cost per squared log-head waiter,
	// modeling the context-switch and handoff thrash RAMCloud developers
	// call the "nanoscheduling" problem. effective = WriteBase +
	// WriteContention * waiters^2.
	WriteContention sim.Duration

	// ReplicaAppend is the backup worker cost of appending one replicated
	// object to an open replica (per object, plus PerKByte for the copy).
	ReplicaAppend sim.Duration

	// PerKByte is the memory-copy cost per KiB of value moved (applies to
	// writes, replica appends and replay).
	PerKByte sim.Duration

	// SendOverhead is the worker cost of issuing one outbound RPC
	// (replication fan-out).
	SendOverhead sim.Duration

	// SegmentOpen is the backup worker cost of opening a replica.
	SegmentOpen sim.Duration

	// ReplayObject is the recovery-master cost of replaying one object on
	// top of the write path costs.
	ReplayObject sim.Duration

	// SpinTimeout is how long an idle worker busy-polls for new work
	// before sleeping. With connection-affine worker queues, where each
	// client's requests go to one worker, it produces the paper's Table I
	// CPU floor behaviour.
	SpinTimeout sim.Duration

	// InterferenceFactor inflates service costs while the node hosts an
	// active recovery, reproducing the paper's 1.4-2.4x latency increase
	// on live data during crash recovery.
	InterferenceFactor float64

	// RecoveryPenalty is extra dispatch delay per request while a
	// recovery replay runs on the node (recovery traffic shares the
	// dispatch thread).
	RecoveryPenalty sim.Duration

	// RDMAPost is the master CPU cost of posting one one-sided RDMA
	// write, replacing SendOverhead when RDMAReplication is on. Posting a
	// work request to the NIC is far cheaper than a full RPC send.
	RDMAPost sim.Duration
}

// DefaultCosts returns the calibration fitted to the paper's testbed.
func DefaultCosts() Costs {
	return Costs{
		Dispatch:           2600 * sim.Nanosecond,
		Read:               1700 * sim.Nanosecond,
		WriteBase:          14 * sim.Microsecond,
		WriteContention:    260 * sim.Microsecond,
		ReplicaAppend:      12 * sim.Microsecond,
		PerKByte:           250 * sim.Nanosecond,
		SendOverhead:       42 * sim.Microsecond,
		SegmentOpen:        2 * sim.Microsecond,
		ReplayObject:       2 * sim.Microsecond,
		SpinTimeout:        400 * sim.Microsecond,
		InterferenceFactor: 2.0,
		RecoveryPenalty:    8 * sim.Microsecond,
		RDMAPost:           2 * sim.Microsecond,
	}
}

// Config describes one server process (master + backup roles).
type Config struct {
	// Workers is the number of worker threads; the dispatch thread pins a
	// further core. The paper's nodes have 4 cores: 1 dispatch + 3 workers.
	Workers int

	// ReplicationFactor is the number of backup replicas per segment
	// (0 disables replication, as in the paper's Sections IV and V).
	ReplicationFactor int

	Log logstore.Config

	Costs Costs

	// ReplicationTimeout bounds the wait for one backup ack before the
	// master declares the backup dead and re-replicates.
	ReplicationTimeout sim.Duration

	// PartitionBytes is the target size of one will partition (RAMCloud
	// uses ~500-600 MB so multiple recovery masters share the load).
	PartitionBytes int64

	// CleanerThreshold is the memory utilization above which the log
	// cleaner runs (RAMCloud default ~0.90). Zero disables cleaning; the
	// paper sizes every workload to stay below the threshold.
	CleanerThreshold float64

	// AsyncReplication, when true, acknowledges writes without waiting
	// for backup acks — the relaxed-consistency variant the paper's
	// Discussion (Section IX.B) proposes. Durability weakens: a master
	// crash can lose the last unacknowledged appends.
	AsyncReplication bool

	// FixedBackups, when true, replaces random segment scatter with a
	// fixed backup set (the next RF servers in ring order). Recovery
	// loses its cluster-wide parallelism; used by the scatter ablation.
	FixedBackups bool

	// RDMAReplication, when true, replicates with one-sided RDMA writes
	// (the paper's Section IX.B "better communication for replication"
	// proposal): objects land directly in the backup's replica buffer,
	// consuming no backup dispatch or worker CPU, and the NIC-level
	// completion is still awaited, so consistency stays strong.
	RDMAReplication bool
}

// DefaultConfig mirrors the paper's server setup: 10 GB of log on a 4-core
// node with 8 MB segments.
func DefaultConfig() Config {
	return Config{
		Workers:            3,
		ReplicationFactor:  0,
		Log:                logstore.DefaultConfig(),
		Costs:              DefaultCosts(),
		ReplicationTimeout: 400 * sim.Millisecond,
		PartitionBytes:     600 << 20,
		CleanerThreshold:   0.90,
	}
}

// Stats counts the work a server has done.
type Stats struct {
	ReadsOK        metrics.Counter
	WritesOK       metrics.Counter
	WrongServer    metrics.Counter
	ReplicaAppends metrics.Counter
	SegmentsSealed metrics.Counter
	SegmentsFlush  metrics.Counter
	ObjectsReplay  metrics.Counter
	BackupFailures metrics.Counter

	CleanerPasses metrics.Counter
	CleanerFreed  metrics.Counter // segments reclaimed
}
