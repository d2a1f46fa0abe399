package logstore

import "slices"

// Replica is a backup's copy of one segment: the entries its master
// replicated, in append order, stored the way the segment stores them —
// the same entry encoding, in blocks cut by the same rule — so a replica
// holds no pointers and nothing it was handed. What At returns is a view
// that stays valid for as long as it is held: blocks are never reused,
// not even after the backup drops the replica.
//
// A replica keeps no liveness: a backup does not know which of its
// entries the master has since overwritten.
type Replica struct {
	seg      Segment
	capacity int // the replicated segment's SegmentBytes
}

// NewReplica returns an empty replica of a segment of segmentBytes.
func NewReplica(segmentBytes int) *Replica {
	return &Replica{capacity: segmentBytes}
}

// Append copies e to the end of the replica. e.Value is nil (virtual) or
// e.ValueLen bytes long. The entry is stored as given, checksum included,
// and none is computed: an entry replicated over RPC carries none, since a
// wire object has no checksum field, and is stored with 0.
func (r *Replica) Append(e Entry) {
	size := e.StorageSize()
	e.encode(r.seg.reserve(entryHeaderBytes+len(e.Key)+len(e.Value), size, r.capacity))
	r.seg.accounted += size
}

// Fill makes r a copy of s, whatever r held before: its blocks, their
// entry-start bitmaps, where each entry starts and what the segment
// accounts, sharing no byte with it. That is the replica appending each
// of s's entries would have made, and later appends cut blocks as they
// would have. Its entries keep what a wire object does not carry: the
// checksum the master sealed, and a tombstone's object segment.
//
// A block's bytes and its bitmap are cloned apart, unlike newBlock's one
// piece: a clone is not zeroed before the copy, and zeroing the large
// allocation was a fifth of an RF 4 bulk load (BenchmarkBulkLoad).
func (r *Replica) Fill(s *Segment) {
	blocks := make([]block, len(s.blocks))
	for i, b := range s.blocks {
		blocks[i] = block{bytes: slices.Clip(slices.Clone(b.bytes)), starts: slices.Clone(b.starts)}
	}
	r.seg = Segment{blocks: blocks, offs: slices.Clone(s.offs), used: s.used, accounted: s.accounted}
}

// Len returns the number of entries.
func (r *Replica) Len() int { return len(r.seg.offs) }

// Bytes returns the accounted bytes appended: what the master's segment
// accounts for the same entries.
func (r *Replica) Bytes() int { return r.seg.accounted }

// At returns a view of entry i, 0 <= i < Len().
func (r *Replica) At(i int) (e Entry) {
	e.decode(r.seg.bytesAt(i))
	return e
}
