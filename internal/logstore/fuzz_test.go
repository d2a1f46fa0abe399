package logstore

import (
	"errors"
	"testing"
)

// FuzzLogRef holds the bad-ref check to exactness. The input is a mix of
// real and virtual objects and tombstones across blocks and segments,
// with one entry larger than a block; a segment is then freed by the
// cleaner. Around every entry ever appended, from 16 bytes before it to
// 16 after, and past the end of every block, Get and MarkDead must
// refuse with ErrBadRef exactly the positions where no entry starts, read
// the entry appended there where one does, and never take liveness below
// zero.
func FuzzLogRef(f *testing.F) {
	f.Add([]byte{0, 0, 200, 2, 90, 4, 7, 1, 255, 3, 3, 5, 0, 0, 17, 0, 100})
	f.Add([]byte{255, 1, 255, 1, 255, 3, 255, 3, 255, 5, 0, 4, 12, 0, 3})
	f.Add([]byte{9, 2, 30, 2, 31, 2, 32, 0, 1, 0, 2, 0, 3, 4, 5, 5, 0, 3, 200, 1, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		cfg := Config{SegmentBytes: blockBytes + 512 + int(data[0])<<12, TotalBytes: 1 << 40}
		l := NewLog(cfg)
		type want struct {
			key     []byte
			version uint64
			size    int
			dead    bool
		}
		refs := make(map[Ref]*want)
		var order []Ref // refs in the order they were made, for deterministic probing
		live := make(map[uint64]int)
		add := func(ref Ref, e Entry) {
			refs[ref] = &want{key: e.Key, version: e.Version, size: e.StorageSize()}
			order = append(order, ref)
			live[ref.Segment] += e.StorageSize()
		}
		appendEntry := func(e Entry) {
			if l.NeedsRoll(e.StorageSize()) {
				l.Roll()
			}
			ref, err := l.Append(e)
			if err != nil {
				t.Fatalf("append of %d bytes: %v", e.StorageSize(), err)
			}
			add(ref, e)
		}
		room := cfg.SegmentBytes - entryHeaderBytes - 16
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			e := Entry{Type: EntryObject, Table: 1, KeyHash: uint64(i), Version: uint64(i + 1),
				Key: []byte{'k', byte(i), byte(i >> 8), 'x', 'y', 'z', 'w', 'v', 'u', 't', 's', 'r'}[:1+arg%12]}
			switch ops[i] % 6 {
			case 0, 1: // real
				e.ValueLen = uint32(min(arg*arg*2, room))
				e.Value = make([]byte, e.ValueLen)
			case 2, 3: // virtual
				e.ValueLen = uint32(min(arg*arg*32, room))
			case 4:
				e.Type, e.ObjectSegment = EntryTombstone, uint64(arg%3)
			case 5:
				l.Roll()
				continue
			}
			appendEntry(e)
			if i == len(ops)/4*2 { // once, a quarter of the way in
				appendEntry(Entry{Type: EntryObject, Table: 2, Key: []byte("big"), Version: uint64(i + 1),
					ValueLen: uint32(blockBytes + 1 + arg), Value: make([]byte, blockBytes+1+arg)})
			}
		}
		markDead := func(ref Ref) {
			w := refs[ref]
			if err := l.MarkDead(ref); err != nil {
				t.Fatalf("MarkDead(%+v) of a live entry: %v", ref, err)
			}
			w.dead = true
			live[ref.Segment] -= w.size
		}
		// Free the first sealed segment that holds an entry: one dead entry
		// makes it the cleaner's only candidate.
		freed := uint64(0)
		for id := uint64(1); id < l.nextSegID && freed == 0; id++ {
			victim, _ := l.Segment(id)
			if victim.Entries() == 0 {
				continue
			}
			markDead(victim.RefAt(0))
			stats, err := l.Clean(1, func(ref Ref, e Entry) bool { return !refs[ref].dead },
				func(old, new Ref, e Entry) { add(new, e) })
			if err != nil || stats.SegmentsFreed != 1 {
				t.Fatalf("Clean: %+v, %v", stats, err)
			}
			if _, ok := l.Segment(id); ok {
				t.Fatalf("segment %d survived its cleaning", id)
			}
			freed = id
			delete(live, id)
		}
		held := func(ref Ref) bool { _, ok := refs[ref]; return ok && ref.Segment != freed }

		probe := func(ref Ref) {
			before := l.LiveBytes()
			e, err := l.Get(ref)
			if !held(ref) {
				if !errors.Is(err, ErrBadRef) {
					t.Fatalf("Get(%+v) of no entry: %v", ref, err)
				}
				if err := l.MarkDead(ref); !errors.Is(err, ErrBadRef) {
					t.Fatalf("MarkDead(%+v) of no entry: %v", ref, err)
				}
				if l.LiveBytes() != before {
					t.Fatalf("MarkDead(%+v) of no entry moved liveness %d -> %d", ref, before, l.LiveBytes())
				}
				return
			}
			w := refs[ref]
			if err != nil || string(e.Key) != string(w.key) || e.Version != w.version {
				t.Fatalf("Get(%+v): key %q version %d (%v), appended key %q version %d", ref, e.Key, e.Version, err, w.key, w.version)
			}
			if !w.dead {
				markDead(ref)
				if s, _ := l.Segment(ref.Segment); s.live != live[ref.Segment] || s.live < 0 {
					t.Fatalf("segment %d live %d after MarkDead, want %d", ref.Segment, s.live, live[ref.Segment])
				}
			}
		}
		at := func(seg uint64, b, off int) Ref { return Ref{Segment: seg, at: 1 + position(b, off)} }
		for _, ref := range order {
			p := ref.at - 1
			b, off := int(p>>granuleBits), int(p&granuleMask)*granuleBytes
			for d := -16; d <= 16; d += granuleBytes {
				if o := off + d; o >= 0 && o < blockBytes {
					probe(at(ref.Segment, b, o))
				}
			}
			probe(Ref{Segment: ref.Segment, Index: 1})
		}
		for id := uint64(1); id <= l.nextSegID; id++ {
			s, ok := l.Segment(id)
			if !ok {
				probe(at(id, 0, 0))
				continue
			}
			for b, blk := range s.blocks {
				end := (len(blk.bytes) + granuleBytes - 1) &^ (granuleBytes - 1)
				for _, o := range []int{end, end + granuleBytes, blockBytes - granuleBytes} {
					if o < blockBytes {
						probe(at(id, b, o))
					}
				}
			}
			if len(s.blocks) < maxBlocks {
				probe(at(id, len(s.blocks), 0))
			}
			probe(at(id, maxBlocks-1, blockBytes-granuleBytes))
		}
		var total int
		for id, want := range live {
			s, _ := l.Segment(id)
			if s.live != want || s.live < 0 {
				t.Fatalf("segment %d live %d, want %d", id, s.live, want)
			}
			total += want
		}
		if l.LiveBytes() != int64(total) || total < 0 {
			t.Fatalf("LiveBytes %d, segments sum to %d", l.LiveBytes(), total)
		}
	})
}
