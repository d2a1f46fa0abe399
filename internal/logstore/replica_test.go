package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// runReplicaSequence appends one random sequence of entries to a Replica
// and to the model — a slice of entries owning their key and value, the
// []wire.Object a backup kept before its replicas became bytes — and
// compares every entry, the accounted bytes and what a key-hash range
// selects after every append.
func runReplicaSequence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{SegmentBytes: 256 + rng.Intn(4096), TotalBytes: 1 << 30}
	steps := 1 + rng.Intn(60)
	if rng.Intn(50) == 0 { // replicas of several 1 MiB blocks
		cfg.SegmentBytes = 3*blockBytes + rng.Intn(blockBytes)
		steps = 24
	}
	r := NewReplica(cfg.SegmentBytes)
	var model []Entry
	accounted := 0
	for step := 0; step < steps; step++ {
		e := randomEntry(rng, cfg, uint64(step+1))
		if rng.Intn(5) == 0 {
			e.Type, e.ValueLen, e.Value, e.ObjectSegment = EntryTombstone, 0, nil, rng.Uint64()
		}
		e.Checksum = rng.Uint32()
		r.Append(e)
		want := e
		want.Key, want.Value = bytes.Clone(e.Key), bytes.Clone(e.Value)
		model = append(model, want)
		accounted += e.StorageSize()
		// The replica keeps nothing it was handed.
		for i := range e.Key {
			e.Key[i] ^= 0xFF
		}
		for i := range e.Value {
			e.Value[i] ^= 0xFF
		}

		if r.Len() != len(model) || r.Bytes() != accounted {
			return fmt.Errorf("seed %d step %d: Len %d Bytes %d, model %d entries of %d bytes", seed, step, r.Len(), r.Bytes(), len(model), accounted)
		}
		for i := range model {
			if err := sameEntry(r.At(i), model[i]); err != nil {
				return fmt.Errorf("seed %d step %d: At(%d): %w", seed, step, i, err)
			}
		}
		lo, hi := rng.Uint64(), rng.Uint64()
		if lo > hi {
			lo, hi = hi, lo
		}
		var got, wantIdx []int
		for i := 0; i < r.Len(); i++ {
			if h := r.At(i).KeyHash; h >= lo && h <= hi {
				got = append(got, i)
			}
			if h := model[i].KeyHash; h >= lo && h <= hi {
				wantIdx = append(wantIdx, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(wantIdx) {
			return fmt.Errorf("seed %d step %d: key hashes in [%d, %d] select %v, model %v", seed, step, lo, hi, got, wantIdx)
		}
	}
	return nil
}

// TestReplicaMatchesObjectModel: 2,000 random sequences of appends —
// virtual, real and empty values, empty keys, tombstones, entries that
// straddle a block's end and ones larger than a block — leave a Replica
// indistinguishable from the slice of entries it was handed.
func TestReplicaMatchesObjectModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(31))}
	if testing.Short() {
		cfg.MaxCount = 200
	}
	if err := quick.Check(func(seed int64) bool {
		if err := runReplicaSequence(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaTakesMoreThanItsSegment: a backup can be handed more than the
// segment it replicates holds (the simulated recovery at -scale 1 does),
// and a replica makes no refs, so it is not bound by the blocks a ref's
// position addresses: past its capacity every entry gets a block of its
// own, and all of them read back.
func TestReplicaTakesMoreThanItsSegment(t *testing.T) {
	r := NewReplica(1024)
	value := bytes.Repeat([]byte{'v'}, 50)
	const n = 3 * maxBlocks
	for i := 0; i < n; i++ {
		r.Append(Entry{Type: EntryObject, Key: []byte("k"), ValueLen: uint32(len(value)), Value: value, Version: uint64(i)})
	}
	if len(r.seg.blocks) <= maxBlocks {
		t.Fatalf("%d blocks: the replica never passed %d", len(r.seg.blocks), maxBlocks)
	}
	for i := 0; i < n; i++ {
		if e := r.At(i); e.Version != uint64(i) || !bytes.Equal(e.Value, value) {
			t.Fatalf("entry %d read back as version %d", i, e.Version)
		}
	}
}

// fillAgainstAppends appends entries to a log's head, fills a replica
// from the head after the first cut of them, then appends the rest to the
// head and to the replica. A reference replica takes every entry by Append
// as a backup takes them over RPC, with no checksum. Each step (of a long
// sequence, the fill and the last) compares the filled replica with the reference in Len, Bytes and every At(i),
// checksum aside, and in where it cut its blocks with the head and the
// reference.
func fillAgainstAppends(cfg Config, entries []Entry, cut int) error {
	l := NewLog(cfg)
	l.Roll()
	head := l.Head()
	filled, reference := NewReplica(cfg.SegmentBytes), NewReplica(cfg.SegmentBytes)
	for i, e := range entries {
		if i == cut {
			filled.Fill(head)
		}
		if _, err := l.Append(e); err != nil {
			return fmt.Errorf("append %d: %w", i, err)
		}
		if i >= cut {
			filled.Append(mustEntryAt(head, i))
		}
		rpc := e
		rpc.Checksum = 0
		reference.Append(rpc)
		if i < cut || len(entries) > 100 && i != cut && i != len(entries)-1 {
			continue
		}
		if err := sameReplica(filled, reference, head); err != nil {
			return fmt.Errorf("after entry %d (filled at %d): %w", i, cut, err)
		}
	}
	if cut == len(entries) {
		filled.Fill(head)
		if err := sameReplica(filled, reference, head); err != nil {
			return fmt.Errorf("filled after all %d entries: %w", cut, err)
		}
	}
	// The replica shares no byte with the segment: wiping the segment's
	// blocks leaves what it reads unchanged.
	for _, b := range head.blocks {
		for i := range b.bytes {
			b.bytes[i] = 0xFF
		}
		for i := range b.starts {
			b.starts[i] = 0
		}
	}
	for i := range head.offs {
		head.offs[i] = 0
	}
	for i := 0; i < reference.Len(); i++ {
		got, want := filled.At(i), reference.At(i)
		got.Checksum = 0
		if err := sameEntry(got, want); err != nil {
			return fmt.Errorf("after the segment was wiped, At(%d): %w", i, err)
		}
	}
	return nil
}

func mustEntryAt(s *Segment, i int) Entry {
	e, err := s.EntryAt(i)
	if err != nil {
		panic(err)
	}
	return e
}

// sameReplica compares filled with reference entry by entry, checksums
// aside (filled carries the segment's), and both with the segment's
// blocks: the same number, each as long, and entries at the same offsets.
func sameReplica(filled, reference *Replica, s *Segment) error {
	if filled.Len() != reference.Len() || filled.Bytes() != reference.Bytes() {
		return fmt.Errorf("Len %d Bytes %d, appended %d entries of %d bytes", filled.Len(), filled.Bytes(), reference.Len(), reference.Bytes())
	}
	for i := 0; i < filled.Len(); i++ {
		got := filled.At(i)
		if want := mustEntryAt(s, i).Checksum; got.Checksum != want {
			return fmt.Errorf("At(%d) checksum %#x, segment's %#x", i, got.Checksum, want)
		}
		got.Checksum = 0
		if err := sameEntry(got, reference.At(i)); err != nil {
			return fmt.Errorf("At(%d): %w", i, err)
		}
	}
	for _, r := range []*Replica{filled, reference} {
		if !slices.Equal(r.seg.offs, s.offs) || r.seg.used != s.used || len(r.seg.blocks) != len(s.blocks) {
			return fmt.Errorf("%d blocks, %d used, %d offsets; segment %d, %d, %d", len(r.seg.blocks), r.seg.used, len(r.seg.offs), len(s.blocks), s.used, len(s.offs))
		}
		for i, b := range r.seg.blocks {
			if len(b.bytes) != len(s.blocks[i].bytes) || !bytes.Equal(b.starts, s.blocks[i].starts) {
				return fmt.Errorf("block %d: %d bytes, segment's %d, or other entry starts", i, len(b.bytes), len(s.blocks[i].bytes))
			}
		}
	}
	return nil
}

// TestReplicaFillMatchesAppends: a replica filled from a segment is the
// replica appending each of its entries makes — the same entries, bytes
// and blocks, the segment's checksums — and later appends cut blocks as
// they would have, also in a segment down to its spare blocks. It shares
// no byte with the segment.
func TestReplicaFillMatchesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for seq := 0; seq < 300; seq++ {
		cfg := Config{SegmentBytes: 256 + rng.Intn(4096), TotalBytes: 1 << 30}
		if seq%50 == 0 { // segments of several 1 MiB blocks
			cfg.SegmentBytes = 3*blockBytes + rng.Intn(blockBytes)
		}
		var entries []Entry
		size := 0
		for {
			e := randomEntry(rng, cfg, uint64(len(entries)+1))
			if rng.Intn(5) == 0 {
				e.Type, e.ValueLen, e.Value, e.ObjectSegment = EntryTombstone, 0, nil, rng.Uint64()
			}
			if size+e.StorageSize() > cfg.SegmentBytes || len(entries) == 60 {
				break
			}
			size += e.StorageSize()
			entries = append(entries, e)
		}
		if err := fillAgainstAppends(cfg, entries, rng.Intn(len(entries)+1)); err != nil {
			t.Fatalf("sequence %d, %d-byte segment: %v", seq, cfg.SegmentBytes, err)
		}
	}

	// A segment that keeps opening small blocks — a virtual value's, then
	// small real values until neither fits — filled once it is down to its
	// spare blocks (TestBlockIndexStaysInPackingRange), and appended to
	// until it is full.
	cfg := DefaultConfig()
	probe := NewLog(cfg)
	probe.Roll()
	small := make([]byte, 24)
	var entries []Entry
	cut := -1
	for i := 0; ; i++ {
		s := probe.Head()
		e := Entry{Type: EntryObject, Key: bytes.Repeat([]byte{'v'}, 40), ValueLen: 40 << 10, Version: uint64(i)}
		if n := len(s.blocks); n > 0 && (s.used+granuleBytes-1)&^(granuleBytes-1)+entryHeaderBytes+1+len(small) <= len(s.blocks[n-1].bytes) {
			e = Entry{Type: EntryObject, Key: []byte{'k'}, ValueLen: uint32(len(small)), Value: small, Version: uint64(i)}
		}
		if probe.NeedsRoll(e.StorageSize()) {
			break
		}
		if _, err := probe.Append(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
		if cut < 0 && len(s.blocks) > maxBlocks-spareBlocks(cfg.SegmentBytes) {
			cut = i + 1
		}
	}
	if cut < 0 || len(probe.Head().blocks) == maxBlocks-spareBlocks(cfg.SegmentBytes)+1 {
		t.Fatalf("%d blocks: the segment never opened a spare block after the first", len(probe.Head().blocks))
	}
	if err := fillAgainstAppends(cfg, entries, cut); err != nil {
		t.Fatal(err)
	}
}
