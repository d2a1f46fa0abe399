package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{SegmentBytes: 1024, TotalBytes: 64 * 1024}
}

func obj(key string, valLen int, version uint64) Entry {
	return Entry{
		Type:     EntryObject,
		Table:    1,
		KeyHash:  uint64(len(key)) * 7,
		Key:      []byte(key),
		ValueLen: uint32(valLen),
		Version:  version,
	}
}

// appendOne rolls if needed and appends, like the master's write path.
func appendOne(t *testing.T, l *Log, e Entry) Ref {
	t.Helper()
	if l.NeedsRoll(e.StorageSize()) {
		l.Roll()
	}
	ref, err := l.Append(e)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return ref
}

func TestAppendAndGet(t *testing.T) {
	l := NewLog(smallCfg())
	e := obj("user1", 100, 1)
	e.Value = []byte("real bytes")
	e.ValueLen = uint32(len(e.Value))
	ref := appendOne(t, l, e)
	got, err := l.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Key) != "user1" || got.Version != 1 {
		t.Fatalf("got %+v", got)
	}
	if !got.verifyChecksum() {
		t.Fatal("checksum mismatch after append")
	}
	if l.Appends() != 1 || l.LiveBytes() != int64(e.StorageSize()) {
		t.Fatalf("appends=%d live=%d", l.Appends(), l.LiveBytes())
	}
}

func TestStorageSizeCountsDeclaredLen(t *testing.T) {
	withBytes := Entry{Type: EntryObject, Key: []byte("k"), ValueLen: 100, Value: make([]byte, 100)}
	virtual := Entry{Type: EntryObject, Key: []byte("k"), ValueLen: 100}
	if withBytes.StorageSize() != virtual.StorageSize() {
		t.Fatal("virtual and real entries must account identically")
	}
}

func TestSegmentRollAtCapacity(t *testing.T) {
	l := NewLog(smallCfg()) // 1024-byte segments
	// Each entry ~ header(45) + key(2) + 300 = 347 bytes; 2 fit, 3rd rolls.
	var rolls int
	for i := 0; i < 6; i++ {
		e := obj(fmt.Sprintf("k%d", i), 300, 1)
		if l.NeedsRoll(e.StorageSize()) {
			l.Roll()
			rolls++
		}
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if rolls != 3 {
		t.Fatalf("rolls = %d, want 3", rolls)
	}
	if l.segmentCount() != 3 {
		t.Fatalf("segments = %d, want 3", l.segmentCount())
	}
	if l.Head().Sealed() {
		t.Fatal("head must not be sealed")
	}
}

func TestRollSealsPrevious(t *testing.T) {
	l := NewLog(smallCfg())
	sealed, head := l.Roll()
	if sealed != nil {
		t.Fatal("first roll must return nil sealed segment")
	}
	first := head
	sealed, head = l.Roll()
	if sealed != first || !sealed.Sealed() {
		t.Fatal("second roll must seal the first segment")
	}
	if head.ID() == first.ID() {
		t.Fatal("new head must have a fresh id")
	}
}

func TestAppendWithoutRollFails(t *testing.T) {
	l := NewLog(smallCfg())
	if _, err := l.Append(obj("k", 10, 1)); err == nil {
		t.Fatal("append into missing head must fail")
	}
}

func TestAppendEntryTooLarge(t *testing.T) {
	l := NewLog(smallCfg())
	l.Roll()
	if _, err := l.Append(obj("k", 5000, 1)); !errors.Is(err, ErrEntryLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogFull(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 1024, TotalBytes: 2048})
	var err error
	for i := 0; i < 100; i++ {
		e := obj("key", 400, 1)
		if l.NeedsRoll(e.StorageSize()) {
			l.Roll()
		}
		if _, err = l.Append(e); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestMarkDeadAccounting(t *testing.T) {
	l := NewLog(smallCfg())
	e := obj("k", 100, 1)
	ref := appendOne(t, l, e)
	size := int64(e.StorageSize())
	if l.LiveBytes() != size {
		t.Fatalf("live = %d", l.LiveBytes())
	}
	if err := l.MarkDead(ref); err != nil {
		t.Fatal(err)
	}
	if l.LiveBytes() != 0 {
		t.Fatalf("live = %d after MarkDead", l.LiveBytes())
	}
	if l.AccountedBytes() != size {
		t.Fatalf("accounted = %d, should not change", l.AccountedBytes())
	}
	seg, _ := l.Segment(ref.Segment)
	if seg.live != 0 || seg.Utilization() != 0 {
		t.Fatalf("segment live=%d util=%v", seg.live, seg.Utilization())
	}
}

func TestMarkDeadBadRef(t *testing.T) {
	l := NewLog(smallCfg())
	if err := l.MarkDead(Ref{Segment: 99, Index: 0}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
	appendOne(t, l, obj("k", 10, 1))
	if err := l.MarkDead(Ref{Segment: 1, Index: 5}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetBadRef(t *testing.T) {
	l := NewLog(smallCfg())
	if _, err := l.Get(Ref{Segment: 1}); !errors.Is(err, ErrBadRef) {
		t.Fatalf("err = %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	e := obj("key", 0, 3)
	e.Value = []byte("hello")
	e.ValueLen = 5
	e.Seal()
	if !e.verifyChecksum() {
		t.Fatal("fresh entry must verify")
	}
	e.Version = 4
	if e.verifyChecksum() {
		t.Fatal("corrupted entry must not verify")
	}
}

// referenceChecksum is ComputeChecksum as it was written before it had to
// stop allocating: one hash.Hash32 fed the header, the key and the value.
// The allocation-free form must produce the same sums, or every stored
// checksum and every rendered figure moves.
func referenceChecksum(e *Entry) uint32 {
	h := crc32.New(castagnoli)
	var hdr [33]byte
	hdr[0] = byte(e.Type)
	le := binary.LittleEndian
	le.PutUint64(hdr[1:], e.Table)
	le.PutUint64(hdr[9:], e.KeyHash)
	le.PutUint64(hdr[17:], e.Version)
	le.PutUint32(hdr[25:], e.ValueLen)
	le.PutUint32(hdr[29:], uint32(len(e.Key)))
	h.Write(hdr[:])
	h.Write(e.Key)
	if e.Value != nil {
		h.Write(e.Value)
	}
	return h.Sum32()
}

func TestChecksumMatchesReferenceAndDoesNotAllocate(t *testing.T) {
	kib := bytes.Repeat([]byte{0xa5, 0x00, 0xff, 0x3c}, 256)
	entries := []Entry{
		{Type: EntryObject, Table: 1, KeyHash: 0x9e3779b97f4a7c15, Key: []byte("user0000000042"), ValueLen: 5, Value: []byte("hello"), Version: 7},
		{Type: EntryObject, Table: 1, KeyHash: 3, Key: []byte("user0000000042"), ValueLen: 1024, Version: 1}, // virtual value
		{Type: EntryObject, Table: 2, KeyHash: 1 << 63, Key: []byte("k"), ValueLen: 1024, Value: kib, Version: 1<<64 - 1},
		{Type: EntryObject, Table: 3, Key: nil, ValueLen: 0, Value: []byte{}, Version: 1}, // empty key, real empty value
		{Type: EntryTombstone, Table: 1, KeyHash: 0xdeadbeef, Key: []byte("user0000000042"), Version: 8, ObjectSegment: 12},
		{Type: EntryTombstone, Table: 1<<64 - 1, KeyHash: 1<<64 - 1, Key: []byte{}, Version: 2},
	}
	for i := range entries {
		e := &entries[i]
		if got, want := e.ComputeChecksum(), referenceChecksum(e); got != want {
			t.Errorf("entry %d: checksum %#08x, reference %#08x", i, got, want)
		}
		var sink uint32
		if n := testing.AllocsPerRun(100, func() { sink += e.ComputeChecksum() }); n != 0 {
			t.Errorf("entry %d: ComputeChecksum allocates %v objects, want 0", i, n)
		}
	}
	f := func(typ uint8, table, hash, version uint64, vlen uint32, key, value []byte) bool {
		e := Entry{Type: EntryType(typ), Table: table, KeyHash: hash, Key: key, ValueLen: vlen, Value: value, Version: version}
		return e.ComputeChecksum() == referenceChecksum(&e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumByteLanes checks the word-at-a-time header fold lane by
// lane against the byte-wise reference: every byte of the table, the key
// hash and the version nonzero, value lengths that fill all four bytes,
// and key lengths on both sides of a word.
func TestChecksumByteLanes(t *testing.T) {
	big := make([]byte, 1<<24+3)
	for i := range big {
		big[i] = byte(i*7 + 1)
	}
	values := []struct {
		n    uint32
		real []byte
	}{
		{1 << 24, nil},
		{1<<32 - 1, nil},
		{0x01020304, nil},
		{uint32(len(big)), big},
		{3, big[:3]},
		{0, []byte{}},
	}
	for _, keyLen := range []int{0, 1, 7, 8, 9} {
		key := bytes.Repeat([]byte{0xc3}, keyLen)
		for _, v := range values {
			for _, typ := range []EntryType{EntryObject, EntryTombstone} {
				e := Entry{
					Type:     typ,
					Table:    0x0102030405060708,
					KeyHash:  0xf1e2d3c4b5a69788,
					Version:  0x1122334455667788,
					Key:      key,
					ValueLen: v.n,
					Value:    v.real,
				}
				if got, want := e.ComputeChecksum(), referenceChecksum(&e); got != want {
					t.Errorf("type %d key %d value %d (real %v): checksum %#08x, reference %#08x",
						typ, keyLen, v.n, v.real != nil, got, want)
				}
			}
		}
	}
}

// TestRefPackRoundTrip: every ref inside the packed widths — 40 bits of
// segment, 7 of block, 17 of granule — survives the hash table's uint64.
func TestRefPackRoundTrip(t *testing.T) {
	f := func(seg uint64, blk uint8, granule uint32) bool {
		b, g := int(blk%maxBlocks), int(granule%(1<<granuleBits))
		r := Ref{Segment: seg % (1 << segmentBits), at: 1 + position(b, g*granuleBytes)}
		return UnpackRef(r.Packed()) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	last := Ref{Segment: 1<<segmentBits - 1, at: 1 + position(maxBlocks-1, blockBytes-granuleBytes)}
	if v := last.Packed(); v != 1<<64-1 || UnpackRef(v) != last {
		t.Fatalf("the last ref packs to %#x", v)
	}
}

// TestRefPackOutOfRangePanics: one past each packed width panics, and so
// does packing a ref that locates nothing.
func TestRefPackOutOfRangePanics(t *testing.T) {
	for name, pack := range map[string]func(){
		"segment":     func() { Ref{Segment: 1 << segmentBits, at: 1}.Packed() },
		"block":       func() { position(maxBlocks, 0) },
		"granule":     func() { position(0, granuleBytes<<granuleBits) },
		"no position": func() { Ref{Segment: 1, Index: 5}.Packed() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			pack()
		}()
	}
}

func TestMemoryUtilization(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 1024, TotalBytes: 4096})
	e := obj("k", 400, 1)
	appendOne(t, l, e)
	got := l.MemoryUtilization()
	want := float64(e.StorageSize()) / 4096
	if got != want {
		t.Fatalf("util = %v, want %v", got, want)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLog(Config{SegmentBytes: 10, TotalBytes: 1})
}

// TestSegmentBeyondRefsPanics: a segment whose blocks a ref's 7-bit block
// index could not address is refused, and the largest that can be is not.
func TestSegmentBeyondRefsPanics(t *testing.T) {
	NewLog(Config{SegmentBytes: 54 << 20, TotalBytes: 1 << 30})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLog(Config{SegmentBytes: 55 << 20, TotalBytes: 1 << 30})
}
