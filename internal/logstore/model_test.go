package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The model: the log as it was before its segments became bytes — every
// segment a []Entry whose entries own their key and value, and a ref the
// entry's ordinal in its segment. It is kept here, test-only, as the
// reference the byte log must be indistinguishable from: the same entries
// at the same refs (the byte log's RefAt of the model's ordinal), the same
// accounting, the same cleaning.

// ordRef is the model's ref: a segment and an ordinal in it.
type ordRef struct {
	Segment uint64
	Index   int
}

type refSegment struct {
	id        uint64
	entries   []Entry
	accounted int
	live      int
	sealed    bool
	seq       uint64
}

type refLog struct {
	cfg            Config
	head           *refSegment
	segments       map[uint64]*refSegment
	nextSegID      uint64
	nextSeq        uint64
	totalAccounted int64
	totalLive      int64
}

func newRefLog(cfg Config) *refLog {
	return &refLog{cfg: cfg, segments: make(map[uint64]*refSegment)}
}

func (l *refLog) needsRoll(size int) bool {
	return l.head == nil || l.head.accounted+size > l.cfg.SegmentBytes
}

func (l *refLog) roll() {
	if l.head != nil {
		l.head.sealed = true
	}
	l.nextSegID++
	l.nextSeq++
	l.head = &refSegment{id: l.nextSegID, seq: l.nextSeq}
	l.segments[l.head.id] = l.head
}

// put appends without the capacity checks; append adds them.
func (l *refLog) put(e Entry) ordRef {
	size := e.StorageSize()
	e.Seal()
	s := l.head
	s.entries = append(s.entries, e)
	s.accounted += size
	s.live += size
	l.totalAccounted += int64(size)
	l.totalLive += int64(size)
	return ordRef{Segment: s.id, Index: len(s.entries) - 1}
}

func (l *refLog) append(e Entry) (ordRef, error) {
	size := e.StorageSize()
	switch {
	case size > l.cfg.SegmentBytes:
		return ordRef{}, ErrEntryLarge
	case l.totalAccounted+int64(size) > l.cfg.TotalBytes:
		return ordRef{}, ErrLogFull
	case l.needsRoll(size):
		return ordRef{}, fmt.Errorf("append without roll")
	}
	return l.put(e), nil
}

func (l *refLog) get(ref ordRef) (Entry, bool) {
	s, ok := l.segments[ref.Segment]
	if !ok || ref.Index < 0 || ref.Index >= len(s.entries) {
		return Entry{}, false
	}
	return s.entries[ref.Index], true
}

func (l *refLog) markDead(ref ordRef) {
	s := l.segments[ref.Segment]
	size := s.entries[ref.Index].StorageSize()
	s.live -= size
	l.totalLive -= int64(size)
}

func (l *refLog) clean(maxSegments int, isLive func(ordRef) bool, relocated func(old, new ordRef)) CleanStats {
	var stats CleanStats
	var victims []*refSegment
	for _, s := range l.segments {
		if s.sealed && s.live < s.accounted {
			victims = append(victims, s)
		}
	}
	score := func(s *refSegment) float64 {
		u := 1.0
		if s.accounted != 0 {
			u = float64(s.live) / float64(s.accounted)
		}
		return (1 - u) * float64(l.nextSeq-s.seq) / (1 + u)
	}
	sort.Slice(victims, func(i, j int) bool {
		si, sj := score(victims[i]), score(victims[j])
		if si != sj {
			return si > sj
		}
		return victims[i].id < victims[j].id
	})
	if len(victims) > maxSegments {
		victims = victims[:maxSegments]
	}
	dying := make(map[uint64]bool)
	for _, v := range victims {
		dying[v.id] = true
	}
	for _, v := range victims {
		for i, e := range v.entries {
			old := ordRef{Segment: v.id, Index: i}
			if e.Type == EntryTombstone {
				if _, exists := l.segments[e.ObjectSegment]; !exists || dying[e.ObjectSegment] {
					stats.TombstonesDropped++
					continue
				}
				stats.TombstonesRelocated++
			} else {
				if !isLive(old) {
					continue
				}
				stats.EntriesRelocated++
			}
			if l.needsRoll(e.StorageSize()) {
				l.roll()
			}
			stats.BytesRelocated += int64(e.StorageSize())
			relocated(old, l.put(e))
		}
	}
	for _, v := range victims {
		stats.SegmentsFreed++
		stats.BytesReclaimed += int64(v.accounted)
		l.totalAccounted -= int64(v.accounted)
		l.totalLive -= int64(v.live)
		delete(l.segments, v.id)
	}
	return stats
}

// sameEntry compares a view from the byte log with the model's entry. A
// nil key and an empty one are the same key; a nil value and an empty one
// are not the same value (nil is virtual).
func sameEntry(got, want Entry) error {
	if (got.Value == nil) != (want.Value == nil) {
		return fmt.Errorf("value nil: %v, model %v", got.Value == nil, want.Value == nil)
	}
	if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
		return fmt.Errorf("key %q value of %d bytes, model key %q value of %d bytes", got.Key, len(got.Value), want.Key, len(want.Value))
	}
	type fixed struct {
		typ                                    EntryType
		table, keyHash, version, objectSegment uint64
		valueLen, checksum                     uint32
	}
	fixedOf := func(e Entry) fixed {
		return fixed{e.Type, e.Table, e.KeyHash, e.Version, e.ObjectSegment, e.ValueLen, e.Checksum}
	}
	if fixedOf(got) != fixedOf(want) {
		return fmt.Errorf("entry %+v, model %+v", fixedOf(got), fixedOf(want))
	}
	return nil
}

// modelPair drives the byte log and the model with the same operations.
type modelPair struct {
	log   *Log
	model *refLog
	refs  []refPair      // every ref ever returned
	live  map[Ref]ordRef // object refs the "index" points at
}

// refPair is a ref of the byte log and the model's for the same entry.
type refPair struct {
	ref Ref
	ord ordRef
}

// refOf returns the byte log's ref of the entry the model's ord names.
// The segment must not have been freed.
func (p *modelPair) refOf(ord ordRef) Ref {
	s, ok := p.log.Segment(ord.Segment)
	if !ok {
		panic(fmt.Sprintf("segment %d of %+v freed", ord.Segment, ord))
	}
	return s.RefAt(ord.Index)
}

func (p *modelPair) roll() {
	p.log.Roll()
	p.model.roll()
}

func (p *modelPair) append(e Entry) (Ref, error) {
	if p.log.NeedsRoll(e.StorageSize()) != p.model.needsRoll(e.StorageSize()) {
		return Ref{}, fmt.Errorf("NeedsRoll(%d) disagrees", e.StorageSize())
	}
	if p.log.NeedsRoll(e.StorageSize()) {
		p.roll()
	}
	ref, err := p.log.Append(e)
	ord, wantErr := p.model.append(e)
	if (err == nil) != (wantErr == nil) {
		return Ref{}, fmt.Errorf("Append: err %v, model err %v", err, wantErr)
	}
	if err != nil {
		return Ref{}, nil
	}
	if want := p.refOf(ord); ref != want {
		return Ref{}, fmt.Errorf("Append: ref %+v, RefAt of the model's %+v is %+v", ref, ord, want)
	}
	p.refs = append(p.refs, refPair{ref, ord})
	if e.Type == EntryObject {
		p.live[ref] = ord
	}
	return ref, nil
}

func (p *modelPair) markDead(ref Ref) error {
	p.model.markDead(p.live[ref])
	delete(p.live, ref)
	return p.log.MarkDead(ref)
}

func (p *modelPair) clean(maxSegments int) error {
	type move struct{ old, new Ref }
	var got, want []move
	var wantNew []ordRef
	live := func(ref Ref) bool { _, ok := p.live[ref]; return ok }
	wantStats := p.model.clean(maxSegments, func(old ordRef) bool { return live(p.refOf(old)) }, func(old, new ordRef) {
		want = append(want, move{old: p.refOf(old)}) // new is in a segment the byte log has yet to open
		wantNew = append(wantNew, new)
	})
	stats, err := p.log.Clean(maxSegments, func(ref Ref, e Entry) bool { return live(ref) }, func(old, new Ref, e Entry) {
		got = append(got, move{old, new})
	})
	if err != nil {
		return err
	}
	if stats != wantStats {
		return fmt.Errorf("Clean(%d): %+v, model %+v", maxSegments, stats, wantStats)
	}
	for i := range want {
		want[i].new = p.refOf(wantNew[i])
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("Clean(%d) relocated %v, model %v", maxSegments, got, want)
	}
	for i, m := range got {
		p.refs = append(p.refs, refPair{m.new, wantNew[i]})
		if _, ok := p.live[m.old]; ok {
			delete(p.live, m.old)
			p.live[m.new] = wantNew[i]
		}
	}
	return nil
}

// check compares everything observable after a step.
func (p *modelPair) check() error {
	if a, b := p.log.AccountedBytes(), p.model.totalAccounted; a != b {
		return fmt.Errorf("AccountedBytes %d, model %d", a, b)
	}
	if a, b := p.log.LiveBytes(), p.model.totalLive; a != b {
		return fmt.Errorf("LiveBytes %d, model %d", a, b)
	}
	if a, b := p.log.segmentCount(), len(p.model.segments); a != b {
		return fmt.Errorf("segmentCount %d, model %d", a, b)
	}
	for _, r := range p.refs {
		ref := r.ref
		got, err := p.log.Get(ref)
		want, ok := p.model.get(r.ord)
		if (err == nil) != ok {
			return fmt.Errorf("Get(%+v): err %v, model has it: %v", ref, err, ok)
		}
		if !ok {
			continue
		}
		if err := sameEntry(got, want); err != nil {
			return fmt.Errorf("Get(%+v): %w", ref, err)
		}
		if _, live := p.live[ref]; (live || got.Type == EntryTombstone) && !got.verifyChecksum() {
			return fmt.Errorf("Get(%+v): checksum does not verify", ref)
		}
	}
	return nil
}

// randomEntry draws an object: real, virtual or empty value; empty key now
// and then; in a large-segment sequence, values that make entries straddle
// a block's end and, rarely, one larger than a block.
func randomEntry(rng *rand.Rand, cfg Config, version uint64) Entry {
	e := Entry{Type: EntryObject, Table: uint64(rng.Intn(3)), KeyHash: rng.Uint64(), Version: version}
	if rng.Intn(8) != 0 {
		e.Key = make([]byte, 1+rng.Intn(24))
		rng.Read(e.Key)
	}
	room := cfg.SegmentBytes - entryHeaderBytes - len(e.Key)
	switch rng.Intn(6) {
	case 0: // virtual
		e.ValueLen = uint32(rng.Intn(room + 1))
	case 1: // empty but real
		e.Value = []byte{}
	default:
		n := rng.Intn(300)
		if cfg.SegmentBytes > blockBytes {
			n = rng.Intn(blockBytes / 3)
			if rng.Intn(12) == 0 {
				n = blockBytes + rng.Intn(1024)
			}
		}
		if n > room {
			n = room
		}
		e.Value = make([]byte, n)
		rng.Read(e.Value)
		e.ValueLen = uint32(n)
	}
	return e
}

// runModelSequence applies one random operation sequence to both logs.
func runModelSequence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{SegmentBytes: 256 + rng.Intn(2048), TotalBytes: 1 << 30}
	steps := 40 + rng.Intn(40)
	if rng.Intn(50) == 0 { // segments of several 1 MiB blocks
		cfg.SegmentBytes = 3*blockBytes + rng.Intn(blockBytes)
		steps = 24
	}
	p := &modelPair{log: NewLog(cfg), model: newRefLog(cfg), live: make(map[Ref]ordRef)}
	anyLive := func() (Ref, bool) {
		if len(p.live) == 0 {
			return Ref{}, false
		}
		refs := make([]Ref, 0, len(p.live))
		for ref := range p.live {
			refs = append(refs, ref)
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].Packed() < refs[j].Packed() })
		return refs[rng.Intn(len(refs))], true
	}
	for step := 0; step < steps; step++ {
		var err error
		op := "append"
		switch k := rng.Intn(10); {
		case k < 5:
			_, err = p.append(randomEntry(rng, cfg, uint64(step+1)))
		case k == 5:
			op = "roll"
			p.roll()
		case k == 6:
			op = "mark dead"
			if ref, ok := anyLive(); ok {
				err = p.markDead(ref)
			}
		case k == 7:
			op = "delete"
			if ref, ok := anyLive(); ok {
				obj, _ := p.model.get(p.live[ref])
				_, err = p.append(Entry{Type: EntryTombstone, Table: obj.Table, KeyHash: obj.KeyHash,
					Key: obj.Key, Version: uint64(step + 1), ObjectSegment: ref.Segment})
				if err == nil {
					err = p.markDead(ref)
				}
			}
		default:
			op = "clean"
			err = p.clean(1 + rng.Intn(3))
		}
		if err == nil {
			err = p.check()
		}
		if err != nil {
			return fmt.Errorf("seed %d step %d (%s): %w", seed, step, op, err)
		}
	}
	return nil
}

// TestByteLogMatchesEntrySliceModel: 2,000 random sequences of Append
// (objects and tombstones), Roll, MarkDead and Clean leave the byte log
// and the []Entry model in the same observable state after every step.
func TestByteLogMatchesEntrySliceModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(23))}
	if testing.Short() {
		cfg.MaxCount = 200
	}
	if err := quick.Check(func(seed int64) bool {
		if err := runModelSequence(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAppendCopiesAndGetReturnsClippedViews: the log keeps nothing it was
// handed, and a view cannot be grown into its neighbour.
func TestAppendCopiesAndGetReturnsClippedViews(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 4096, TotalBytes: 1 << 20})
	l.Roll()
	key, value := []byte("key"), []byte("value")
	ref, err := l.Append(Entry{Type: EntryObject, Key: key, ValueLen: 5, Value: value})
	if err != nil {
		t.Fatal(err)
	}
	next, err := l.Append(Entry{Type: EntryObject, Key: []byte("next"), ValueLen: 1, Value: []byte("n")})
	if err != nil {
		t.Fatal(err)
	}
	copy(key, "XXX")
	copy(value, "XXXXX")
	e, err := l.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Key) != "key" || string(e.Value) != "value" {
		t.Fatalf("log aliases what Append was handed: key %q value %q", e.Key, e.Value)
	}
	_ = append(e.Key, "grown"...)
	_ = append(e.Value, "grown"...)
	if again, _ := l.Get(ref); string(again.Value) != "value" || !again.verifyChecksum() {
		t.Fatalf("append to a view's key reached the value: %q", again.Value)
	}
	if n, _ := l.Get(next); string(n.Key) != "next" || !n.verifyChecksum() {
		t.Fatalf("append to a view's value reached the next entry: %+v", n)
	}
	if _, err := l.Append(Entry{Type: EntryObject, ValueLen: 9, Value: []byte("short")}); err == nil {
		t.Fatal("a real value shorter than its declared length was accepted")
	}
}

// TestEntriesNeverStraddleBlocks pins the block and granule rules at
// their edges: every entry starts on a granule, the only bits of a block's
// bitmap are its entries' granules, an entry that exactly fills a block
// from its granule stays in it, one byte more — padding included — opens
// the next, an entry larger than a block has a block of its own, exactly
// as long, and a segment's last block is as long as the rest of the
// segment would store in entries like the one that opened it, padded.
func TestEntriesNeverStraddleBlocks(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 3*blockBytes + 1000, TotalBytes: 1 << 30})
	l.Roll()
	type place struct{ block, off int }
	put := func(stored int, want place) Entry {
		t.Helper()
		value := bytes.Repeat([]byte{byte(stored)}, stored-entryHeaderBytes-1)
		ref, err := l.Append(Entry{Type: EntryObject, Key: []byte{'k'}, ValueLen: uint32(len(value)), Value: value})
		if err != nil {
			t.Fatal(err)
		}
		p := ref.at - 1
		if got := (place{int(p >> granuleBits), int(p&granuleMask) * granuleBytes}); got != want {
			t.Fatalf("entry of %d stored bytes at %+v, want %+v", stored, got, want)
		}
		e, err := l.Get(ref)
		if err != nil || !bytes.Equal(e.Value, value) || !e.verifyChecksum() {
			t.Fatalf("entry of %d stored bytes read back wrong (err %v)", stored, err)
		}
		return e
	}
	blockLens := func() []int {
		var lens []int
		for _, b := range l.Head().blocks {
			lens = append(lens, len(b.bytes))
		}
		return lens
	}
	put(blockBytes-101, place{0, 0})
	put(96, place{0, blockBytes - 96}) // 5 bytes of padding, then fills block 0 to its last byte
	if got := blockLens(); fmt.Sprint(got) != fmt.Sprint([]int{blockBytes}) {
		t.Fatalf("blocks %v after an exact fill, want one of %d", got, blockBytes)
	}
	put(blockBytes-101, place{1, 0})
	put(97, place{2, 0}) // with its padding, one byte too many for block 1
	big := put(blockBytes+1, place{3, 0})
	rest := l.cfg.SegmentBytes - l.Head().accounted
	put(50, place{4, 0})
	want := []int{blockBytes, blockBytes, blockBytes, blockBytes + 1, rest * 56 / 50}
	if got := blockLens(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("blocks %v, want %v", got, want)
	}
	if again, _ := l.Get(l.Head().RefAt(4)); !bytes.Equal(again.Value, big.Value) {
		t.Fatal("the entry with a block of its own changed when the next block opened")
	}
	// Each bitmap has a bit per granule (one for the block of its own), and
	// the bits set are the entries' granules.
	wantBits := make([][]int, len(want))
	for i := 0; i < l.Head().Entries(); i++ {
		p := l.Head().RefAt(i).at - 1
		wantBits[p>>granuleBits] = append(wantBits[p>>granuleBits], int(p&granuleMask))
	}
	for bi, b := range l.Head().blocks {
		granules := (len(b.bytes) + granuleBytes - 1) / granuleBytes
		if len(b.bytes) > blockBytes {
			granules = 1
		}
		if len(b.starts) != (granules+7)/8 {
			t.Fatalf("block %d of %d bytes has a bitmap of %d bytes, want %d", bi, len(b.bytes), len(b.starts), (granules+7)/8)
		}
		var bits []int
		for g := 0; g < 8*len(b.starts); g++ {
			if b.starts[g/8]&(1<<(g%8)) != 0 {
				bits = append(bits, g)
			}
		}
		if fmt.Sprint(bits) != fmt.Sprint(wantBits[bi]) {
			t.Fatalf("block %d: start bits %v, entries at granules %v", bi, bits, wantBits[bi])
		}
	}
}

// TestBlockIndexStaysInPackingRange: a segment that keeps opening small
// blocks — each sized for a virtual value that accounts for a lot and
// stores little, then filled with small real values until neither fits —
// would pass the 128 blocks a ref's position addresses; once it is down
// to its spare blocks, new ones are large enough that it never does, and
// every entry still reads back at its ref.
func TestBlockIndexStaysInPackingRange(t *testing.T) {
	cfg := DefaultConfig()
	l := NewLog(cfg)
	l.Roll()
	small := make([]byte, 24)
	realNeed := entryHeaderBytes + 1 + len(small)
	fits := func() bool {
		s := l.Head()
		if len(s.blocks) == 0 {
			return false
		}
		start := (s.used + granuleBytes - 1) &^ (granuleBytes - 1)
		return start+realNeed <= len(s.blocks[len(s.blocks)-1].bytes)
	}
	var refs []Ref
	for i := 0; ; i++ {
		// The virtual entry stores more than the real one, so it opens a block
		// whenever the real one no longer fits.
		e := Entry{Type: EntryObject, Key: bytes.Repeat([]byte{'v'}, 40), ValueLen: 40 << 10, Version: uint64(i)}
		if fits() {
			e = Entry{Type: EntryObject, Key: []byte{'k'}, ValueLen: uint32(len(small)), Value: small, Version: uint64(i)}
		}
		if l.NeedsRoll(e.StorageSize()) {
			break
		}
		ref, err := l.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if n := len(l.Head().blocks); n > maxBlocks || n <= maxBlocks-spareBlocks(cfg.SegmentBytes) {
		t.Fatalf("%d blocks: want the spare blocks in use (more than %d) and at most %d", n, maxBlocks-spareBlocks(cfg.SegmentBytes), maxBlocks)
	}
	for i, ref := range refs {
		if e, err := l.Get(ref); err != nil || e.Version != uint64(i) || UnpackRef(ref.Packed()) != ref {
			t.Fatalf("entry %d at %+v: version %d, %v", i, ref, e.Version, err)
		}
	}
}

// TestViewOutlivesItsSegment: a view taken from a segment still reads the
// same bytes after thousands of later appends and after the cleaner freed
// the segment. Blocks are never reused; the collector is what frees them.
func TestViewOutlivesItsSegment(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 128 << 10, TotalBytes: 1 << 30})
	l.Roll()
	value := bytes.Repeat([]byte("0123456789abcdef"), 64)
	ref, err := l.Append(Entry{Type: EntryObject, Key: []byte("the-key"), ValueLen: uint32(len(value)), Value: value})
	if err != nil {
		t.Fatal(err)
	}
	view, err := l.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte{0xEE}, 1024)
	for i := 0; i < 10000; i++ {
		e := Entry{Type: EntryObject, Key: []byte("filler"), ValueLen: 1024, Value: filler, Version: uint64(i)}
		if l.NeedsRoll(e.StorageSize()) {
			l.Roll()
		}
		fill, err := l.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.MarkDead(fill); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.MarkDead(ref); err != nil {
		t.Fatal(err)
	}
	l.Roll()
	if _, err := l.Clean(l.segmentCount(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get(ref); err == nil {
		t.Fatal("the view's segment survived the clean; the test proves nothing")
	}
	if string(view.Key) != "the-key" || !bytes.Equal(view.Value, value) || !view.verifyChecksum() {
		t.Fatalf("view changed after its segment was freed: key %q, value intact: %v", view.Key, bytes.Equal(view.Value, value))
	}
}

var benchSink uint64

// BenchmarkAppendGet appends a 1 KiB real value and reads it back: the
// whole of what the log does per written object. 0 allocs/op: a block per
// ~60 entries and the offset table's growth are all it allocates.
func BenchmarkAppendGet(b *testing.B) {
	cfg := DefaultConfig()
	key, value := []byte("user000000012345"), bytes.Repeat([]byte{'v'}, 1024)
	l := NewLog(cfg)
	b.ReportAllocs()
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := Entry{Type: EntryObject, Table: 1, KeyHash: uint64(i), Key: key, ValueLen: 1024, Value: value, Version: uint64(i)}
		if l.NeedsRoll(e.StorageSize()) {
			if l.AccountedBytes() > 256<<20 {
				l = NewLog(cfg) // bound the benchmark's memory, not the log's
			}
			l.Roll()
		}
		ref, err := l.Append(e)
		if err != nil {
			b.Fatal(err)
		}
		got, err := l.Get(ref)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += got.Version + uint64(len(got.Value))
	}
}
