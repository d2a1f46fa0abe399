package logstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelStore drives a Log the way a master would, tracking the current ref
// of every key in a map so tests can check cleaner correctness against a
// simple model.
type modelStore struct {
	log  *Log
	refs map[string]Ref // key -> live ref
	vals map[string]uint64
}

func newModelStore(cfg Config) *modelStore {
	return &modelStore{log: NewLog(cfg), refs: make(map[string]Ref), vals: make(map[string]uint64)}
}

func (m *modelStore) write(t *testing.T, key string, version uint64) {
	t.Helper()
	e := obj(key, 64, version)
	e.KeyHash = uint64(len(key))*131 + uint64(key[len(key)-1])
	if m.log.NeedsRoll(e.StorageSize()) {
		m.log.Roll()
	}
	ref, err := m.log.Append(e)
	if err != nil {
		t.Fatalf("append %s: %v", key, err)
	}
	if old, ok := m.refs[key]; ok {
		if err := m.log.MarkDead(old); err != nil {
			t.Fatal(err)
		}
	}
	m.refs[key] = ref
	m.vals[key] = version
}

func (m *modelStore) delete(t *testing.T, key string) {
	t.Helper()
	old, ok := m.refs[key]
	if !ok {
		t.Fatalf("delete of absent key %s", key)
	}
	oldEntry, err := m.log.Get(old)
	if err != nil {
		t.Fatal(err)
	}
	tomb := Entry{
		Type:          EntryTombstone,
		Table:         oldEntry.Table,
		KeyHash:       oldEntry.KeyHash,
		Key:           []byte(key),
		Version:       oldEntry.Version,
		ObjectSegment: old.Segment,
	}
	if m.log.NeedsRoll(tomb.StorageSize()) {
		m.log.Roll()
	}
	if _, err := m.log.Append(tomb); err != nil {
		t.Fatal(err)
	}
	if err := m.log.MarkDead(old); err != nil {
		t.Fatal(err)
	}
	delete(m.refs, key)
	delete(m.vals, key)
}

func (m *modelStore) isLive(ref Ref, e Entry) bool {
	cur, ok := m.refs[string(e.Key)]
	return ok && cur == ref
}

func (m *modelStore) clean(t *testing.T, maxSegs int) CleanStats {
	t.Helper()
	stats, err := m.log.Clean(maxSegs, m.isLive, func(old, new Ref, e Entry) {
		if e.Type != EntryObject {
			return
		}
		if m.refs[string(e.Key)] != old {
			t.Fatalf("relocating non-live entry %s", e.Key)
		}
		m.refs[string(e.Key)] = new
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func (m *modelStore) verify(t *testing.T) {
	t.Helper()
	for key, ref := range m.refs {
		e, err := m.log.Get(ref)
		if err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		if string(e.Key) != key {
			t.Fatalf("key %s resolves to entry for %s", key, e.Key)
		}
		if e.Version != m.vals[key] {
			t.Fatalf("key %s version %d, want %d", key, e.Version, m.vals[key])
		}
		if !e.verifyChecksum() {
			t.Fatalf("key %s checksum broken after clean", key)
		}
	}
}

func TestCleanReclaimsDeadSegments(t *testing.T) {
	m := newModelStore(Config{SegmentBytes: 512, TotalBytes: 1 << 20})
	// Overwrite the same keys repeatedly: old segments become fully dead.
	for round := 0; round < 10; round++ {
		for k := 0; k < 5; k++ {
			m.write(t, fmt.Sprintf("key%d", k), uint64(round+1))
		}
	}
	segsBefore := m.log.segmentCount()
	accBefore := m.log.AccountedBytes()
	stats := m.clean(t, segsBefore)
	if stats.SegmentsFreed == 0 {
		t.Fatal("cleaner freed nothing despite heavy overwrites")
	}
	if m.log.AccountedBytes() >= accBefore {
		t.Fatalf("accounted bytes did not shrink: %d -> %d", accBefore, m.log.AccountedBytes())
	}
	m.verify(t)
}

func TestCleanPreservesExactlyLiveSet(t *testing.T) {
	m := newModelStore(Config{SegmentBytes: 512, TotalBytes: 1 << 20})
	rng := rand.New(rand.NewSource(11))
	keys := 20
	for op := 0; op < 500; op++ {
		k := fmt.Sprintf("key%02d", rng.Intn(keys))
		if _, ok := m.refs[k]; ok && rng.Intn(4) == 0 {
			m.delete(t, k)
		} else {
			m.write(t, k, uint64(op+1))
		}
		if op%97 == 0 {
			m.clean(t, 4)
			m.verify(t)
		}
	}
	m.clean(t, m.log.segmentCount())
	m.verify(t)
	// Every surviving object entry must be in the live set.
	liveCount := 0
	for id := uint64(0); id <= m.log.nextSegID; id++ {
		s, ok := m.log.Segment(id)
		if !ok {
			continue
		}
		for i := 0; i < s.Entries(); i++ {
			e, _ := s.EntryAt(i)
			if e.Type != EntryObject {
				continue
			}
			ref := s.RefAt(i)
			if m.refs[string(e.Key)] == ref {
				liveCount++
			}
		}
	}
	if liveCount != len(m.refs) {
		t.Fatalf("live entries in log = %d, model has %d", liveCount, len(m.refs))
	}
}

func TestCleanDropsObsoleteTombstones(t *testing.T) {
	m := newModelStore(Config{SegmentBytes: 256, TotalBytes: 1 << 20})
	m.write(t, "victim", 1)
	m.delete(t, "victim")
	// Fill more segments so the one holding the object seals and dies.
	for i := 0; i < 30; i++ {
		m.write(t, fmt.Sprintf("fill%d", i), 1)
	}
	total := CleanStats{}
	for i := 0; i < 4; i++ {
		s := m.clean(t, m.log.segmentCount())
		total.TombstonesDropped += s.TombstonesDropped
		total.SegmentsFreed += s.SegmentsFreed
	}
	if total.TombstonesDropped == 0 {
		t.Fatal("tombstone for freed segment was never dropped")
	}
	m.verify(t)
}

func TestCleanNoVictimsNoop(t *testing.T) {
	m := newModelStore(Config{SegmentBytes: 512, TotalBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		m.write(t, fmt.Sprintf("k%d", i), 1)
	}
	stats := m.clean(t, 10) // everything is live; head not sealed
	if stats.SegmentsFreed != 0 || stats.EntriesRelocated != 0 {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}

func TestSelectVictimsOrdering(t *testing.T) {
	l := NewLog(Config{SegmentBytes: 512, TotalBytes: 1 << 20})
	// Build three sealed segments with different utilizations.
	var refs [][]Ref
	for s := 0; s < 3; s++ {
		l.Roll()
		var rs []Ref
		for i := 0; i < 4; i++ {
			r, err := l.Append(obj(fmt.Sprintf("s%dk%d", s, i), 50, 1))
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		refs = append(refs, rs)
	}
	l.Roll() // seal the last one
	// Kill all of segment 0, half of segment 1, none of segment 2.
	for _, r := range refs[0] {
		_ = l.MarkDead(r)
	}
	for _, r := range refs[1][:2] {
		_ = l.MarkDead(r)
	}
	victims := l.SelectVictims(10)
	if len(victims) != 2 {
		t.Fatalf("victims = %d, want 2 (fully-live segment excluded)", len(victims))
	}
	if victims[0].ID() != refs[0][0].Segment {
		t.Fatalf("first victim = %d, want the emptiest segment", victims[0].ID())
	}
}

func TestQuickCleanerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModelStore(Config{SegmentBytes: 384, TotalBytes: 1 << 20})
		for op := 0; op < 300; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(12))
			switch {
			case rng.Intn(5) == 0:
				if _, ok := m.refs[k]; ok {
					m.delete(t, k)
				}
			default:
				m.write(t, k, uint64(op+1))
			}
			if rng.Intn(50) == 0 {
				m.clean(t, 1+rng.Intn(3))
			}
		}
		m.clean(t, m.log.segmentCount())
		m.verify(t)
	}
}
