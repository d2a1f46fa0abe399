// Package logstore implements RAMCloud's log-structured memory: an
// append-only log divided into fixed-size segments (8 MB by default), with
// tombstones for deletes, per-segment liveness accounting, and a
// cost-benefit cleaner that reclaims space by relocating live entries.
//
// The log is a pure data structure: it knows nothing about threads,
// networks or time. The master wraps it with the simulation's concurrency
// control (the log-head mutex) and replication.
//
// Values may be virtual (declared length without bytes) so that
// paper-scale experiments fit in host memory; all capacity accounting uses
// declared sizes, so segment rollover, cleaning and backup flush behave
// exactly as if the bytes were real.
//
// The log is bytes: an appended entry is serialised into its segment's
// pointer-free backing (header, key, then the value when it is real), and
// what Get hands back is a view of those bytes. Nothing is allocated per
// entry and the collector has nothing to trace inside a segment.
//
// A ref is a position, as in RAMCloud: the segment, the block of the
// segment and the 8-byte granule of the block where the entry starts. In
// storage every entry starts on a granule, padded after its predecessor,
// and each block keeps a bitmap of the granules where an entry starts, so
// Get and MarkDead go from a ref straight to the entry's bytes and still
// refuse a ref that names no entry. The padding is in the stored bytes
// only: what an entry accounts for, and so rolls, cleaning and replica
// accounting, do not change.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// EntryType discriminates log records.
type EntryType uint8

// Log record types. Start at one so a zero value is detectably invalid.
const (
	EntryObject EntryType = iota + 1
	EntryTombstone
)

// Entry is one log record. What Append is given is copied into the log;
// what Get and EntryAt return is a view: Key and Value are sub-slices of
// the segment's bytes, never written again after the append, so they may
// be read without the owner's lock but must not be written through.
type Entry struct {
	Type     EntryType
	Table    uint64
	KeyHash  uint64
	Key      []byte
	ValueLen uint32
	Value    []byte // nil when virtual; len(Value) == ValueLen when real
	Version  uint64

	// ObjectSegment is, for tombstones, the segment that held the deleted
	// object. The tombstone may be dropped once that segment is freed.
	ObjectSegment uint64

	Checksum uint32
}

// entryHeaderBytes is the accounted per-entry overhead, and the stored
// header byte for byte: type, table, key hash, key length, value length,
// version, object segment, checksum (little-endian). The key follows, then
// the value unless it is virtual, which the type byte's top bit records.
const entryHeaderBytes = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4

const virtualFlag = 0x80

// encode serialises the sealed entry into b, which is exactly as long as
// the entry's stored form.
func (e *Entry) encode(b []byte) {
	b[0] = byte(e.Type)
	if e.Value == nil {
		b[0] |= virtualFlag
	}
	le := binary.LittleEndian
	le.PutUint64(b[1:], e.Table)
	le.PutUint64(b[9:], e.KeyHash)
	le.PutUint32(b[17:], uint32(len(e.Key)))
	le.PutUint32(b[21:], e.ValueLen)
	le.PutUint64(b[25:], e.Version)
	le.PutUint64(b[33:], e.ObjectSegment)
	le.PutUint32(b[41:], e.Checksum)
	n := entryHeaderBytes + copy(b[entryHeaderBytes:], e.Key)
	copy(b[n:], e.Value)
}

// decode makes e a view of the entry stored at the start of b: Key and
// Value alias b, clipped so an append cannot reach the bytes behind them.
// It fills e in place because Get is on every lookup: handing the 100-byte
// struct up through one more return doubled what a Get costs.
func (e *Entry) decode(b []byte) {
	_ = b[entryHeaderBytes-1]
	le := binary.LittleEndian
	e.Type = EntryType(b[0] &^ virtualFlag)
	e.Table = le.Uint64(b[1:])
	e.KeyHash = le.Uint64(b[9:])
	e.ValueLen = le.Uint32(b[21:])
	e.Version = le.Uint64(b[25:])
	e.ObjectSegment = le.Uint64(b[33:])
	e.Checksum = le.Uint32(b[41:])
	keyEnd := entryHeaderBytes + int(le.Uint32(b[17:]))
	e.Key = b[entryHeaderBytes:keyEnd:keyEnd]
	e.Value = nil
	if b[0]&virtualFlag == 0 {
		valueEnd := keyEnd + int(e.ValueLen)
		e.Value = b[keyEnd:valueEnd:valueEnd]
	}
}

// StorageSize returns the bytes this entry occupies in the log, counting
// the declared value length.
func (e *Entry) StorageSize() int {
	return entryHeaderBytes + len(e.Key) + int(e.ValueLen)
}

// ComputeChecksum returns the CRC-32C over the entry's logical content.
// Virtual values contribute their declared length (the simulation cannot
// hash bytes it does not materialize, but a length change still alters the
// sum).
//
// The content is a 33-byte header — type, table, key hash, version, value
// length, key length, little-endian — then the key and the value. Every
// append on both halves computes one, so it must not allocate, and the
// header is never written out: handing a header array to crc32.Update, or
// to a hash.Hash32, moves it to the heap. The type byte is folded with
// one table lookup and the rest of the header as four 64-bit words, each
// eight lookups into the slicing-by-8 tables (table, key hash, version,
// then both lengths in one word). Only the key and the value, heap slices
// already, go through crc32.Update and its hardware instruction.
func (e *Entry) ComputeChecksum() uint32 {
	sum := ^uint32(0)
	sum = castagnoli8[0][byte(sum)^byte(e.Type)] ^ sum>>8
	sum = foldWord(sum, e.Table)
	sum = foldWord(sum, e.KeyHash)
	sum = foldWord(sum, e.Version)
	sum = foldWord(sum, uint64(e.ValueLen)|uint64(len(e.Key))<<32)
	sum = crc32.Update(^sum, castagnoli, e.Key)
	if e.Value != nil {
		sum = crc32.Update(sum, castagnoli, e.Value)
	}
	return sum
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// castagnoli8 are the slicing-by-8 tables of CRC-32C: castagnoli8[k][b] is
// the register after byte b is followed by k zero bytes.
var castagnoli8 = func() (t [8][256]uint32) {
	t[0] = *castagnoli
	for b := range 256 {
		for k := 1; k < 8; k++ {
			prev := t[k-1][b]
			t[k][b] = t[0][byte(prev)] ^ prev>>8
		}
	}
	return t
}()

// foldWord advances the (inverted) CRC-32C register sum over the eight
// little-endian bytes of w.
func foldWord(sum uint32, w uint64) uint32 {
	lo := uint32(w) ^ sum
	hi := uint32(w >> 32)
	t := &castagnoli8
	return t[7][byte(lo)] ^ t[6][byte(lo>>8)] ^ t[5][byte(lo>>16)] ^ t[4][lo>>24] ^
		t[3][byte(hi)] ^ t[2][byte(hi>>8)] ^ t[1][byte(hi>>16)] ^ t[0][hi>>24]
}

// Seal protects the entry with its checksum.
func (e *Entry) Seal() { e.Checksum = e.ComputeChecksum() }

// verifyChecksum reports whether the entry matches its checksum.
func (e *Entry) verifyChecksum() bool { return e.Checksum == e.ComputeChecksum() }

// Ref locates an entry in the log: its segment, and where its bytes start
// in the segment's storage. Only Append, Segment.RefAt and UnpackRef make
// one. A ref spelled out by hand, Ref{Segment: s, Index: i}, locates
// nothing: Get and MarkDead refuse it with ErrBadRef.
type Ref struct {
	Segment uint64
	// Index is not read. Refs were once ordinals; the field stays zero so
	// that a ref spelled out as an ordinal is refused, not misread.
	Index int
	// at is 1 + the entry's position, block<<granuleBits | granule; the
	// zero at locates nothing.
	at uint32
}

// A ref packs into a uint64 for the hash table: 40 bits of segment id,
// then a 24-bit position, 7 bits of block and 17 of granule.
const (
	segmentBits  = 40
	blockBits    = 7
	granuleBits  = 17
	granuleBytes = 8
	maxBlocks    = 1 << blockBits
	granuleMask  = 1<<granuleBits - 1
	positionMask = 1<<(blockBits+granuleBits) - 1
)

// Packed encodes the ref as a uint64 for storage in the hash table.
func (r Ref) Packed() uint64 {
	if r.Segment >= 1<<segmentBits || r.at == 0 {
		panic(fmt.Sprintf("logstore: ref out of packing range: %+v", r))
	}
	return r.Segment<<(blockBits+granuleBits) | uint64(r.at-1)
}

// UnpackRef inverts Ref.Packed.
func UnpackRef(v uint64) Ref {
	return Ref{Segment: v >> (blockBits + granuleBits), at: 1 + uint32(v&positionMask)}
}

// position packs block b and byte offset off, a granule boundary, into a
// ref's position. It panics past either field's width; reserve keeps a
// log segment inside both. (A backup's replica, which makes no refs, may
// be handed more than a segment holds and outgrow them.)
func position(b, off int) uint32 {
	if uint(b) >= maxBlocks || uint(off) >= granuleBytes<<granuleBits {
		positionOutOfRange(b, off) // a call, so that position inlines into every append
	}
	return uint32(b<<granuleBits | off/granuleBytes)
}

//go:noinline
func positionOutOfRange(b, off int) {
	panic(fmt.Sprintf("logstore: position out of packing range: block %d offset %d", b, off))
}

// blockBytes bounds one piece of a segment's backing. A segment's bytes
// are allocated a block at a time as it fills, never as one SegmentBytes
// array: an 8 MB array per head leaves megabytes of unfilled tail in the
// heap of every master (measured: tcp-open heap_mb_peak +22 %, against
// +3 % in 1 MiB pieces; PERFORMANCE.md "The log is bytes"). RAMCloud cuts
// its segments into seglets for the same reason. A ref's 17-bit granule
// addresses exactly one block.
const blockBytes = granuleBytes << granuleBits

// block is one piece of a segment's backing. starts is carved from the
// same allocation, after bytes: bit g%8 of starts[g/8] is set when an
// entry starts at granule g.
type block struct {
	bytes  []byte
	starts []byte
}

// newBlock allocates a block of n bytes and its entry-start bitmap in one
// piece. A block larger than blockBytes holds one entry, at granule 0.
func newBlock(n int) block {
	granules := (n + granuleBytes - 1) / granuleBytes
	if n > blockBytes {
		granules = 1
	}
	all := make([]byte, n+(granules+7)/8)
	return block{bytes: all[:n:n], starts: all[n:]}
}

// storable bounds the stored bytes, padding included, of entries that
// account for at most rest bytes: an entry stores at most what it
// accounts for plus granuleBytes-1 of padding, and accounts for at least
// entryHeaderBytes.
func storable(rest int) int {
	return rest + rest*(granuleBytes-1)/entryHeaderBytes + granuleBytes
}

// spareBlocks is how many blocks a segment of capacity accounted bytes
// keeps in reserve so that its block index never outgrows blockBits.
// From then on each new block is blockBytes, or the whole of what the
// segment can still store; a full-size block is left only when what it
// holds and the entry that did not fit exceed blockBytes, and each entry
// is counted at most twice that way.
func spareBlocks(capacity int) int {
	return 2 + 2*storable(capacity)/blockBytes
}

// Segment is one fixed-size piece of the log: its entries serialised in
// blocks, each from a granule boundary. An entry never straddles a block;
// one larger than a block has a block of its own. Blocks are never reused
// — a freed segment's are left to the collector, which is what keeps a
// view valid for as long as anybody holds it.
type Segment struct {
	id     uint64
	blocks []block
	// offs[i] locates entry i: block offs[i]>>32, byte uint32(offs[i]).
	// Iteration by ordinal reads it; Get and MarkDead do not.
	offs      []uint64
	used      int // bytes filled in the last block
	accounted int // bytes appended (declared sizes)
	live      int // bytes still live
	sealed    bool
	seq       uint64 // creation sequence, proxy for age in cost-benefit
}

// reserve returns room for the next entry — need bytes stored, size bytes
// accounted, in a segment of capacity accounted bytes — at the next
// granule, and records where it starts. A new block is as large as the
// rest of the segment would store if it filled up with entries like this
// one, padded, at most blockBytes: real values get the block they will
// fill, and a segment of virtual values, which stores a twentieth of what
// it accounts, gets no more than that. Once the segment is down to its
// spare blocks, a new block is as large as the rest could need.
func (s *Segment) reserve(need, size, capacity int) []byte {
	last := len(s.blocks) - 1
	start := (s.used + granuleBytes - 1) &^ (granuleBytes - 1)
	if last < 0 || start+need > len(s.blocks[last].bytes) {
		rest := capacity - s.accounted
		padded := (need + granuleBytes - 1) &^ (granuleBytes - 1)
		n := int(int64(rest) * int64(padded) / int64(size))
		if len(s.blocks) >= maxBlocks-spareBlocks(capacity) {
			n = storable(rest)
		}
		n = max(min(n, blockBytes), need)
		s.blocks = append(s.blocks, newBlock(n))
		start = 0
		last++
	}
	b := &s.blocks[last]
	g := start / granuleBytes
	b.starts[g/8] |= 1 << (g % 8)
	s.offs = append(s.offs, uint64(last)<<32|uint64(start))
	s.used = start + need
	return b.bytes[start:s.used]
}

// bytesAt returns the block from entry i's first byte on.
func (s *Segment) bytesAt(i int) []byte {
	off := s.offs[i]
	return s.blocks[off>>32].bytes[uint32(off):]
}

// locate returns the block from the first byte of the entry at a ref's
// at on, or nil when no entry starts there. at alone addresses both the
// bitmap byte and the entry's bytes, so the two loads overlap.
func (s *Segment) locate(at uint32) []byte {
	p := at - 1
	bi, g := p>>granuleBits, p&granuleMask
	if bi >= uint32(len(s.blocks)) {
		return nil
	}
	b := &s.blocks[bi]
	if g/8 >= uint32(len(b.starts)) || b.starts[g/8]&(1<<(g%8)) == 0 {
		return nil
	}
	return b.bytes[g*granuleBytes:]
}

// badRef is the error for a ref to s that locates no entry.
func (s *Segment) badRef(ref Ref) error {
	p := ref.at - 1
	return fmt.Errorf("%w: no entry at block %d granule %d of segment %d (%d blocks)",
		ErrBadRef, p>>granuleBits, p&granuleMask, s.id, len(s.blocks))
}

// RefAt returns the ref of the i-th entry, 0 <= i < Entries().
func (s *Segment) RefAt(i int) Ref {
	off := s.offs[i]
	return Ref{Segment: s.id, at: 1 + position(int(off>>32), int(uint32(off)))}
}

// ID returns the segment's log-unique id.
func (s *Segment) ID() uint64 { return s.id }

// Entries returns the number of records in the segment.
func (s *Segment) Entries() int { return len(s.offs) }

// Accounted returns the bytes appended to this segment.
func (s *Segment) Accounted() int { return s.accounted }

// Sealed reports whether the segment is closed to appends.
func (s *Segment) Sealed() bool { return s.sealed }

// Utilization returns live/accounted in [0,1]; 1 for an empty segment.
func (s *Segment) Utilization() float64 {
	if s.accounted == 0 {
		return 1
	}
	return float64(s.live) / float64(s.accounted)
}

// has reports whether the segment has an entry i; badIndex is the error
// when it has not.
func (s *Segment) has(i int) bool { return i >= 0 && i < len(s.offs) }

func (s *Segment) badIndex(i int) error {
	return fmt.Errorf("%w: index %d of %d in segment %d", ErrBadRef, i, len(s.offs), s.id)
}

// EntryAt returns a view of the i-th entry.
func (s *Segment) EntryAt(i int) (e Entry, err error) {
	if !s.has(i) {
		return e, s.badIndex(i)
	}
	e.decode(s.bytesAt(i))
	return e, nil
}

// Config sets the log geometry.
type Config struct {
	SegmentBytes int   // capacity of one segment (paper default: 8 MB)
	TotalBytes   int64 // total log capacity (paper: 10 GB per server)
}

// DefaultConfig mirrors the paper's server configuration.
func DefaultConfig() Config {
	return Config{SegmentBytes: 8 << 20, TotalBytes: 10 << 30}
}

// Log errors.
var (
	ErrBadRef     = errors.New("logstore: invalid reference")
	ErrLogFull    = errors.New("logstore: log capacity exhausted")
	ErrEntryLarge = errors.New("logstore: entry larger than a segment")
)

// Log is the append-only log-structured memory of one master.
type Log struct {
	cfg Config

	head     *Segment
	segments map[uint64]*Segment

	nextSegID uint64
	nextSeq   uint64

	totalAccounted int64
	totalLive      int64

	appends uint64
}

// NewLog returns an empty log. The first Append opens the first segment.
func NewLog(cfg Config) *Log {
	if cfg.SegmentBytes <= entryHeaderBytes {
		panic("logstore: segment size too small")
	}
	if cfg.TotalBytes < int64(cfg.SegmentBytes) {
		panic("logstore: total capacity below one segment")
	}
	if spareBlocks(cfg.SegmentBytes) > maxBlocks {
		panic("logstore: segment size beyond what a ref's block index addresses")
	}
	return &Log{cfg: cfg, segments: make(map[uint64]*Segment)}
}

// Config returns the log geometry.
func (l *Log) Config() Config { return l.cfg }

// Head returns the current head segment (nil before the first append).
func (l *Log) Head() *Segment { return l.head }

// segmentCount returns the number of segments (head included).
func (l *Log) segmentCount() int { return len(l.segments) }

// Segment returns a segment by id.
func (l *Log) Segment(id uint64) (*Segment, bool) {
	s, ok := l.segments[id]
	return s, ok
}

// Appends returns the number of entries ever appended.
func (l *Log) Appends() uint64 { return l.appends }

// LiveBytes returns the total live bytes.
func (l *Log) LiveBytes() int64 { return l.totalLive }

// AccountedBytes returns the total appended bytes across all segments.
func (l *Log) AccountedBytes() int64 { return l.totalAccounted }

// MemoryUtilization returns accounted bytes / total capacity, the trigger
// metric for cleaning.
func (l *Log) MemoryUtilization() float64 {
	return float64(l.totalAccounted) / float64(l.cfg.TotalBytes)
}

// NeedsRoll reports whether appending size more bytes requires opening a
// new head segment.
func (l *Log) NeedsRoll(size int) bool {
	return l.head == nil || l.head.accounted+size > l.cfg.SegmentBytes
}

// Roll seals the current head and opens a new one. It returns the sealed
// segment (nil on the very first roll) and the new head. The master uses
// the sealed segment to close backup replicas and the new head to open
// fresh ones.
func (l *Log) Roll() (sealed, head *Segment) {
	sealed = l.head
	if sealed != nil {
		sealed.sealed = true
	}
	l.nextSegID++
	l.nextSeq++
	head = &Segment{id: l.nextSegID, seq: l.nextSeq}
	l.segments[head.id] = head
	l.head = head
	return sealed, head
}

// Append copies an entry into the head segment and returns its ref; the
// caller keeps its key and value. The caller must have arranged capacity
// via NeedsRoll/Roll; appending an entry that does not fit the head is an
// error. Entries larger than a segment or beyond total capacity are errors.
func (l *Log) Append(e Entry) (Ref, error) {
	size := e.StorageSize()
	if size > l.cfg.SegmentBytes {
		return Ref{}, fmt.Errorf("%w: %d bytes", ErrEntryLarge, size)
	}
	if l.totalAccounted+int64(size) > l.cfg.TotalBytes {
		return Ref{}, ErrLogFull
	}
	if l.head == nil || l.head.accounted+size > l.cfg.SegmentBytes {
		return Ref{}, fmt.Errorf("logstore: append without roll (head full or missing)")
	}
	if e.Type != EntryObject && e.Type != EntryTombstone {
		return Ref{}, fmt.Errorf("logstore: entry type %d", e.Type)
	}
	if e.Value != nil && len(e.Value) != int(e.ValueLen) {
		return Ref{}, fmt.Errorf("logstore: value of %d bytes declared as %d", len(e.Value), e.ValueLen)
	}
	return l.put(&e, size), nil
}

// put seals e and serialises it at the end of the head segment, which has
// room for its size accounted bytes.
func (l *Log) put(e *Entry, size int) Ref {
	e.Seal()
	s := l.head
	e.encode(s.reserve(entryHeaderBytes+len(e.Key)+len(e.Value), size, l.cfg.SegmentBytes))
	s.accounted += size
	s.live += size
	l.totalAccounted += int64(size)
	l.totalLive += int64(size)
	l.appends++
	return s.RefAt(len(s.offs) - 1)
}

// Get returns a view of the entry at ref.
func (l *Log) Get(ref Ref) (e Entry, err error) {
	s, ok := l.segments[ref.Segment]
	if !ok {
		return e, fmt.Errorf("%w: segment %d missing", ErrBadRef, ref.Segment)
	}
	b := s.locate(ref.at)
	if b == nil {
		return e, s.badRef(ref)
	}
	e.decode(b)
	return e, nil
}

// MarkDead reduces liveness for the entry at ref (overwritten or deleted).
func (l *Log) MarkDead(ref Ref) error {
	s, ok := l.segments[ref.Segment]
	if !ok {
		return fmt.Errorf("%w: segment %d missing", ErrBadRef, ref.Segment)
	}
	b := s.locate(ref.at)
	if b == nil {
		return s.badRef(ref)
	}
	// The entry's StorageSize, from its two length fields alone.
	size := entryHeaderBytes + int(binary.LittleEndian.Uint32(b[17:])) + int(binary.LittleEndian.Uint32(b[21:]))
	s.live -= size
	l.totalLive -= int64(size)
	if s.live < 0 {
		return fmt.Errorf("logstore: segment %d liveness below zero", s.id)
	}
	return nil
}

// free removes a segment entirely, reclaiming its accounted bytes.
func (l *Log) free(s *Segment) {
	l.totalAccounted -= int64(s.accounted)
	l.totalLive -= int64(s.live)
	delete(l.segments, s.id)
}
