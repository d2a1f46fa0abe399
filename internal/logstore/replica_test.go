package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
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
