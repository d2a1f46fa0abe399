package store

import (
	"sort"

	"ramcloud/internal/logstore"
	"ramcloud/internal/wire"
)

// Status-only acks are shared by every backup of every cluster: a sent
// message is immutable, and the masters read nothing from these but their
// arrival. No code may write to them.
var (
	openSegmentOK     = &wire.OpenSegmentResp{Status: wire.StatusOK}
	replicateOK       = &wire.ReplicateResp{Status: wire.StatusOK}
	replicateError    = &wire.ReplicateResp{Status: wire.StatusError}
	closeSegmentOK    = &wire.CloseSegmentResp{Status: wire.StatusOK}
	closeSegmentError = &wire.CloseSegmentResp{Status: wire.StatusError}
	freeReplicasOK    = &wire.FreeReplicasResp{Status: wire.StatusOK}
	rdmaWriteOK       = &wire.RDMAWriteResp{Status: wire.StatusOK}
)

// Replica is one segment replica a backup holds: bytes the backup copied
// in, never a reference into a request.
type Replica struct {
	data   *logstore.Replica
	onDisk bool
	read   bool // read from disk by a recovery; freed with the replica
}

// Bytes returns the accounted bytes replicated: what a flush writes.
func (r *Replica) Bytes() int { return r.data.Bytes() }

// Flushed records that the replica is on disk.
func (r *Replica) Flushed() { r.onDisk = true }

// Backups is one backup's replicas, of every master that replicates to it,
// by master and then by segment, so that an append hashes one word and a
// free drops a master's replicas without a scan.
type Backups struct {
	segmentBytes int
	open         map[int32]map[uint64]*Replica
	sealed       map[int32]map[uint64]*Replica
}

// NewBackups returns a backup holding no replicas, for masters whose
// segments are segmentBytes long. It is a value, for its server to hold
// without one more allocation.
func NewBackups(segmentBytes int) Backups {
	return Backups{
		segmentBytes: segmentBytes,
		open:         make(map[int32]map[uint64]*Replica),
		sealed:       make(map[int32]map[uint64]*Replica),
	}
}

// segments returns the master's replicas in byMaster, made on first use.
func segments(byMaster map[int32]map[uint64]*Replica, master int32) map[uint64]*Replica {
	m := byMaster[master]
	if m == nil {
		m = make(map[uint64]*Replica)
		byMaster[master] = m
	}
	return m
}

// Open opens an empty replica of the master's segment. One still open
// is emptied: a master opens a replica again only to resend the segment
// whole, after an earlier resend timed out at the master yet was taken.
func (b *Backups) Open(m *wire.OpenSegmentReq) *wire.OpenSegmentResp {
	segments(b.open, m.Master)[m.Segment] = &Replica{data: logstore.NewReplica(b.segmentBytes)}
	return openSegmentOK
}

// Replicate copies m's objects to the end of their open replica and
// returns the storage bytes appended; none when the replica is not open.
func (b *Backups) Replicate(m *wire.ReplicateReq) (*wire.ReplicateResp, int) {
	r, ok := b.open[m.Master][m.Segment]
	if !ok {
		return replicateError, 0
	}
	bytes := 0
	for i := range m.Objects {
		e := EntryOf(&m.Objects[i])
		r.data.Append(e)
		bytes += e.StorageSize()
	}
	return replicateOK, bytes
}

// Fill makes the master's open replica of seg a copy of the segment, for
// a master's bulk load, and returns how many entries that added: the
// replica is what replicating each of them would have made. It reports
// false when the replica is not open.
func (b *Backups) Fill(master int32, seg *logstore.Segment) (int, bool) {
	r, ok := b.open[master][seg.ID()]
	if !ok {
		return 0, false
	}
	added := seg.Entries() - r.data.Len()
	r.data.Fill(seg)
	return added, true
}

// RDMAWrite is Replicate as a one-sided write: one to a replica that is
// not open is dropped, like a write to an unregistered region, and
// completes all the same.
func (b *Backups) RDMAWrite(m *wire.RDMAWriteReq) (*wire.RDMAWriteResp, int) {
	_, bytes := b.Replicate((*wire.ReplicateReq)(m)) // the same fields
	return rdmaWriteOK, bytes
}

// Close seals the open replica and returns it, for the caller to flush;
// nil when it is not open.
func (b *Backups) Close(m *wire.CloseSegmentReq) (*wire.CloseSegmentResp, *Replica) {
	r, ok := b.open[m.Master][m.Segment]
	if !ok {
		return closeSegmentError, nil
	}
	delete(b.open[m.Master], m.Segment)
	segments(b.sealed, m.Master)[m.Segment] = r
	return closeSegmentOK, r
}

// Free drops every replica of the master, open or sealed, and with them
// the record of which were read.
func (b *Backups) Free(m *wire.FreeReplicasReq) *wire.FreeReplicasResp {
	delete(b.open, m.Master)
	delete(b.sealed, m.Master)
	return freeReplicasOK
}

// Inventory lists the master's replicas, open and sealed, by segment.
func (b *Backups) Inventory(m *wire.SegmentInventoryReq) *wire.SegmentInventoryResp {
	var infos []wire.SegmentInfo
	for segID, r := range b.sealed[m.Master] {
		infos = append(infos, wire.SegmentInfo{Segment: segID, Bytes: uint32(r.Bytes())})
	}
	for segID, r := range b.open[m.Master] {
		infos = append(infos, wire.SegmentInfo{Segment: segID, Bytes: uint32(r.Bytes())})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Segment < infos[j].Segment })
	return &wire.SegmentInventoryResp{Status: wire.StatusOK, Segments: infos}
}

// RecoveryData returns a crashed master's replica filtered to a key-hash
// partition, in append order, and the storage bytes filtered. firstRead
// is true when the replica is on disk and has not been read since its
// master's last free: a backup reads each segment once per recovery and
// splits it from memory, as RAMCloud's do. The objects are views of the
// replica's bytes, which outlive a Free.
func (b *Backups) RecoveryData(m *wire.GetRecoveryDataReq) (resp *wire.GetRecoveryDataResp, filtered int, firstRead bool) {
	r, ok := b.open[m.Master][m.Segment]
	if !ok {
		if r, ok = b.sealed[m.Master][m.Segment]; !ok {
			return &wire.GetRecoveryDataResp{Status: wire.StatusError}, 0, false
		}
	}
	if r.onDisk && !r.read {
		r.read, firstRead = true, true
	}
	var objs []wire.Object
	for i := 0; i < r.data.Len(); i++ {
		if e := r.data.At(i); e.KeyHash >= m.FirstHash && e.KeyHash <= m.LastHash {
			objs = append(objs, ObjectOf(e))
			filtered += e.StorageSize()
		}
	}
	return &wire.GetRecoveryDataResp{Status: wire.StatusOK, SegmentBytes: uint32(r.Bytes()), Objects: objs}, filtered, firstRead
}

// ObjectOf returns the wire object a log entry describes, its key and
// value still the entry's.
func ObjectOf(e logstore.Entry) wire.Object {
	return wire.Object{
		Table:     e.Table,
		KeyHash:   e.KeyHash,
		Key:       e.Key,
		ValueLen:  e.ValueLen,
		Value:     e.Value,
		Version:   e.Version,
		Tombstone: e.Type == logstore.EntryTombstone,
	}
}

// EntryOf is ObjectOf's inverse, its key and value still the object's.
func EntryOf(o *wire.Object) logstore.Entry {
	e := logstore.Entry{
		Type:     logstore.EntryObject,
		Table:    o.Table,
		KeyHash:  o.KeyHash,
		Key:      o.Key,
		ValueLen: o.ValueLen,
		Value:    o.Value,
		Version:  o.Version,
	}
	if o.Tombstone {
		e.Type = logstore.EntryTombstone
	}
	return e
}
