// Package wire defines the RPC message vocabulary of the storage system and
// a compact binary codec for it. The simulated fabric passes message structs
// by reference for speed, but every message has an exact on-wire size
// (WireSize) that drives network transfer timing. Marshal / AppendEnvelope
// and Unmarshal / UnmarshalView are the real encoding the TCP transport
// sends; each message states its byte layout once, in a walk that both
// encodes and decodes.
//
// Values may be "virtual": a message can declare ValueLen without carrying
// the bytes (Value == nil). WireSize always accounts the declared length,
// which lets large experiments run without materializing gigabytes of
// payload while keeping transfer times faithful.
package wire

import (
	"errors"
	"fmt"
)

// Op identifies a message type on the wire.
type Op uint8

// Message opcodes. Start at one so an accidental zero is caught.
const (
	OpReadReq Op = iota + 1
	OpReadResp
	OpWriteReq
	OpWriteResp
	OpDeleteReq
	OpDeleteResp
	OpCreateTableReq
	OpCreateTableResp
	OpDropTableReq
	OpDropTableResp
	OpGetTabletMapReq
	OpGetTabletMapResp
	OpEnlistReq
	OpEnlistResp
	OpPingReq
	OpPingResp
	OpSetWillReq
	OpSetWillResp
	OpOpenSegmentReq
	OpOpenSegmentResp
	OpReplicateReq
	OpReplicateResp
	OpCloseSegmentReq
	OpCloseSegmentResp
	OpFreeReplicasReq
	OpFreeReplicasResp
	OpSegmentInventoryReq
	OpSegmentInventoryResp
	OpGetRecoveryDataReq
	OpGetRecoveryDataResp
	OpRecoverReq
	OpRecoverResp
	OpRecoveryDoneReq
	OpRecoveryDoneResp
	OpRDMAWriteReq
	OpRDMAWriteResp
	OpMultiReadReq
	OpMultiReadResp
	OpMultiWriteReq
	OpMultiWriteResp
	OpMigrateTabletReq
	OpMigrateTabletResp
	OpTakeTabletReq
	OpTakeTabletResp
	OpEnlistAddrReq
	OpEnlistAddrResp
	OpServerListReq
	OpServerListResp
	OpAssignTabletsReq
	OpAssignTabletsResp
)

// Status is the result code carried by every response.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota + 1
	StatusUnknownTable
	StatusUnknownKey
	StatusWrongServer
	StatusRecovering
	StatusRetry
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusUnknownTable:
		return "UNKNOWN_TABLE"
	case StatusUnknownKey:
		return "UNKNOWN_KEY"
	case StatusWrongServer:
		return "WRONG_SERVER"
	case StatusRecovering:
		return "RECOVERING"
	case StatusRetry:
		return "RETRY"
	case StatusError:
		return "ERROR"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// headerSize covers op (1), rpc id (8) and total length (4).
const headerSize = 1 + 8 + 4

// HeaderSize is the envelope header length: opcode (1 byte), RPC id (8)
// and total frame length (4). The length field makes a marshaled
// envelope self-framing, which is what the transport's frame reader
// relies on.
const HeaderSize = headerSize

// MaxEnvelopeSize is the hard upper bound on a marshaled envelope. The
// largest legitimate frames are recovery responses carrying one 8 MB
// segment's objects; 64 MiB leaves generous headroom while keeping a
// hostile length prefix from driving an arbitrary-size allocation in
// the frame reader.
const MaxEnvelopeSize = 64 << 20

// Object is one log record crossing the wire (replication, recovery).
type Object struct {
	Table     uint64
	KeyHash   uint64
	Key       []byte
	ValueLen  uint32
	Value     []byte // nil when the payload is virtual
	Version   uint64
	Tombstone bool
}

// Tablet describes one key-hash range of a table and its owning master.
type Tablet struct {
	Table      uint64
	StartHash  uint64
	EndHash    uint64 // inclusive
	Master     int32
	Recovering bool
}

// SegmentInfo identifies a sealed replica held by a backup.
type SegmentInfo struct {
	Segment uint64
	Bytes   uint32
}

// SegmentLoc tells a recovery master where to fetch a segment from.
type SegmentLoc struct {
	Segment uint64
	Backup  int32
	Bytes   uint32
}

// WillPartition is one key-hash range in a master's recovery will.
type WillPartition struct {
	FirstHash uint64
	LastHash  uint64
}

// Client data plane --------------------------------------------------------

// ReadReq fetches one object.
type ReadReq struct {
	Table uint64
	Key   []byte
}

// ReadResp returns one object's value.
type ReadResp struct {
	Status   Status
	Version  uint64
	ValueLen uint32
	Value    []byte
}

// WriteReq inserts or overwrites one object.
type WriteReq struct {
	Table    uint64
	Key      []byte
	ValueLen uint32
	Value    []byte
}

// WriteResp acknowledges a durable write.
type WriteResp struct {
	Status  Status
	Version uint64
}

// DeleteReq removes one object.
type DeleteReq struct {
	Table uint64
	Key   []byte
}

// DeleteResp acknowledges a delete.
type DeleteResp struct {
	Status  Status
	Version uint64
}

// MultiReadItem is one lookup in a MultiRead batch.
type MultiReadItem struct {
	Table uint64
	Key   []byte
}

// MultiReadResult is one item's outcome in a MultiReadResp. Items are
// positional: result i answers request item i.
type MultiReadResult struct {
	Status   Status
	Version  uint64
	ValueLen uint32
	Value    []byte // nil when the payload is virtual
}

// MultiReadReq fetches a batch of objects in one RPC. The client partitions
// a multi-read by tablet owner, so every item addresses (or is believed to
// address) the receiving master; items that moved come back with
// StatusWrongServer individually while the rest of the batch succeeds.
type MultiReadReq struct {
	Items []MultiReadItem
}

// MultiReadResp carries per-item results. Status is the RPC-level status;
// per-item codes live in the items themselves.
type MultiReadResp struct {
	Status Status
	Items  []MultiReadResult
}

// MultiWriteItem is one insert/overwrite in a MultiWrite batch.
type MultiWriteItem struct {
	Table    uint64
	Key      []byte
	ValueLen uint32
	Value    []byte // nil when the payload is virtual
}

// MultiWriteResult is one item's outcome in a MultiWriteResp (positional).
type MultiWriteResult struct {
	Status  Status
	Version uint64
}

// MultiWriteReq writes a batch of objects in one RPC. The whole batch is
// appended under a single log-head acquisition and replicated in one
// fan-out per segment, which is where batching recovers the throughput the
// paper's per-op writes lose to contention.
type MultiWriteReq struct {
	Items []MultiWriteItem
}

// MultiWriteResp carries per-item results.
type MultiWriteResp struct {
	Status Status
	Items  []MultiWriteResult
}

// Coordinator control plane ------------------------------------------------

// CreateTableReq creates a table spanning ServerSpan masters (the paper sets
// ServerSpan equal to the cluster size for uniform distribution).
type CreateTableReq struct {
	Name       string
	ServerSpan uint32
}

// CreateTableResp returns the new table's id.
type CreateTableResp struct {
	Status Status
	Table  uint64
}

// DropTableReq removes a table by name.
type DropTableReq struct {
	Name string
}

// DropTableResp acknowledges a drop.
type DropTableResp struct {
	Status Status
}

// GetTabletMapReq fetches the current tablet configuration.
type GetTabletMapReq struct{}

// GetTabletMapResp carries the full tablet map.
type GetTabletMapResp struct {
	Status  Status
	Tablets []Tablet
}

// EnlistReq registers a server with the coordinator.
type EnlistReq struct {
	Node        int32
	MemoryBytes int64
	HasBackup   bool
}

// EnlistResp returns the server's cluster id.
type EnlistResp struct {
	Status   Status
	ServerID int32
}

// PingReq is the failure-detector probe.
type PingReq struct {
	Seq uint64
}

// PingResp answers a probe.
type PingResp struct {
	Seq uint64
}

// SetWillReq updates a master's recovery will.
type SetWillReq struct {
	Master     int32
	Partitions []WillPartition
}

// SetWillResp acknowledges a will update.
type SetWillResp struct {
	Status Status
}

// Replication plane ---------------------------------------------------------

// OpenSegmentReq opens a replica for a new head segment.
type OpenSegmentReq struct {
	Master  int32
	Segment uint64
}

// OpenSegmentResp acknowledges the open.
type OpenSegmentResp struct {
	Status Status
}

// ReplicateReq appends objects to an open replica.
type ReplicateReq struct {
	Master  int32
	Segment uint64
	Objects []Object
}

// ReplicateResp acknowledges a durable (in-DRAM) replica append.
type ReplicateResp struct {
	Status Status
}

// CloseSegmentReq seals a replica; the backup then flushes it to disk.
type CloseSegmentReq struct {
	Master       int32
	Segment      uint64
	SegmentBytes uint32
}

// CloseSegmentResp acknowledges the close.
type CloseSegmentResp struct {
	Status Status
}

// FreeReplicasReq discards all replicas belonging to a master (after its
// data has been re-replicated post-recovery).
type FreeReplicasReq struct {
	Master int32
}

// FreeReplicasResp acknowledges the free.
type FreeReplicasResp struct {
	Status Status
}

// RDMAWriteReq models the paper's Section IX.B proposal: replicate with
// one-sided RDMA writes that deposit objects directly into the backup's
// open replica buffer, bypassing its dispatch and worker threads
// entirely. The ack is NIC-level.
type RDMAWriteReq struct {
	Master  int32
	Segment uint64
	Objects []Object
}

// RDMAWriteResp is the NIC-level completion.
type RDMAWriteResp struct {
	Status Status
}

// Recovery plane -------------------------------------------------------------

// SegmentInventoryReq asks a backup which replicas it holds for a master.
type SegmentInventoryReq struct {
	Master int32
}

// SegmentInventoryResp lists replicas held.
type SegmentInventoryResp struct {
	Status   Status
	Segments []SegmentInfo
}

// GetRecoveryDataReq fetches a crashed master's segment, filtered to a
// key-hash partition.
type GetRecoveryDataReq struct {
	Master    int32
	Segment   uint64
	FirstHash uint64
	LastHash  uint64
}

// GetRecoveryDataResp returns the filtered objects. SegmentBytes is the full
// replica size read from disk (the disk does not filter).
type GetRecoveryDataResp struct {
	Status       Status
	SegmentBytes uint32
	Objects      []Object
}

// RecoverReq instructs a recovery master to replay one partition of a
// crashed master.
type RecoverReq struct {
	Crashed   int32
	FirstHash uint64
	LastHash  uint64
	Tablets   []Tablet
	Segments  []SegmentLoc
}

// RecoverResp acknowledges that recovery started.
type RecoverResp struct {
	Status Status
}

// RecoveryDoneReq reports a finished partition replay to the coordinator.
type RecoveryDoneReq struct {
	Crashed   int32
	FirstHash uint64
	Ok        bool
}

// RecoveryDoneResp acknowledges completion.
type RecoveryDoneResp struct {
	Status Status
}

// Migration plane ------------------------------------------------------------

// MigrateTabletReq instructs the current owner of a tablet to transfer its
// live objects in [FirstHash, LastHash] of Table to Dst and release
// ownership. Issued by the coordinator when tablets re-spread onto a
// rejoined server.
type MigrateTabletReq struct {
	Table     uint64
	FirstHash uint64
	LastHash  uint64
	Dst       int32
}

// MigrateTabletResp acknowledges a completed migration.
type MigrateTabletResp struct {
	Status Status
	Moved  uint32 // live objects transferred
}

// TakeTabletReq carries one batch of migrated objects to the tablet's new
// owner, which replays them through its write path (re-replicating at its
// configured factor).
type TakeTabletReq struct {
	Table     uint64
	FirstHash uint64
	LastHash  uint64
	Objects   []Object
}

// TakeTabletResp acknowledges a migration batch.
type TakeTabletResp struct {
	Status Status
}

// Real-transport control plane ----------------------------------------------
//
// The simulated fabric addresses nodes by integer NodeID, which doubles
// as the server id. A real cluster needs one more indirection: servers
// enlist with a dialable address, clients resolve master ids to
// addresses, and the coordinator pushes tablet ownership over the wire
// instead of through in-process registry calls. These messages exist
// only for that path; nothing on the simulated fabric sends them, so
// every pre-existing rendering is untouched.

// ServerAddr binds a cluster server id to its dialable address.
type ServerAddr struct {
	ID   int32
	Addr string
}

// EnlistAddrReq registers a server with the coordinator by its listen
// address. The coordinator assigns the server id (re-enlisting with a
// known address keeps the old id).
type EnlistAddrReq struct {
	Addr        string
	MemoryBytes int64
}

// EnlistAddrResp returns the assigned server id.
type EnlistAddrResp struct {
	Status   Status
	ServerID int32
}

// ServerListReq fetches the id-to-address map of alive servers.
type ServerListReq struct{}

// ServerListResp lists alive servers in ascending id order.
type ServerListResp struct {
	Status  Status
	Servers []ServerAddr
}

// AssignTabletsReq replaces the receiving server's tablet ownership set
// with exactly the tablets carried. Replace semantics keep the push
// idempotent: re-delivery after a retry cannot double-assign.
type AssignTabletsReq struct {
	Tablets []Tablet
}

// AssignTabletsResp acknowledges an ownership update.
type AssignTabletsResp struct {
	Status Status
}

// Codec ----------------------------------------------------------------------

// ErrTruncated reports a message shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge reports a frame whose declared length exceeds
// MaxEnvelopeSize. A transport must reject the frame before allocating
// for it: the length prefix is attacker-controlled bytes.
var ErrTooLarge = errors.New("wire: envelope exceeds MaxEnvelopeSize")

// ErrBadLength reports a length field that disagrees with the bytes
// actually presented (truncated tail, garbage after a valid envelope,
// or a length smaller than the fixed header).
var ErrBadLength = errors.New("wire: length field mismatch")

// ErrUnknownOp reports an unrecognized opcode.
var ErrUnknownOp = errors.New("wire: unknown opcode")

// ErrVirtualValue reports an attempt to marshal a message whose declared
// value length disagrees with the bytes it carries.
var ErrVirtualValue = errors.New("wire: cannot marshal virtual value")
