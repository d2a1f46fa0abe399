package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/wire"
)

// TestFilledReplicaRecoversAsReplicated: a replica filled from a master's
// segment carries the checksums the master sealed, and one the master
// built by Replicate carries none, because a wire object has no checksum.
// Both answer the recovery fetch with identical objects and bytes for any
// key-hash range, open and sealed, and the inventory with the same bytes.
func TestFilledReplicaRecoversAsReplicated(t *testing.T) {
	const segmentBytes = 64 << 10
	st := New(logstore.Config{SegmentBytes: segmentBytes, TotalBytes: 1 << 30})
	st.Log.Roll()
	rng := rand.New(rand.NewSource(5))
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("key%d", rng.Intn(120)))
		hash := hashtable.HashKey(1, key)
		o := wire.Object{Table: 1, KeyHash: hash, Key: key, ValueLen: uint32(rng.Intn(900))}
		if rng.Intn(3) == 0 {
			o.Value = make([]byte, o.ValueLen)
			rng.Read(o.Value)
		}
		if rng.Intn(6) == 0 {
			o = wire.Object{Table: 1, KeyHash: hash, Key: key, Tombstone: true} // a delete, answered UnknownKey when nothing is indexed
		}
		if e := EntryOf(&o); st.Log.NeedsRoll(e.StorageSize()) {
			break
		}
		if _, status := st.Apply(&o, nil); status == wire.StatusError {
			t.Fatalf("Apply(%+v): %v", o, status)
		}
	}
	seg := st.Log.Head()
	objs := make([]wire.Object, seg.Entries())
	for i := range objs {
		e, err := seg.EntryAt(i)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = ObjectOf(e)
	}

	const master = 7
	filled, replicated := NewBackups(segmentBytes), NewBackups(segmentBytes)
	for _, b := range []*Backups{&filled, &replicated} {
		b.Open(&wire.OpenSegmentReq{Master: master, Segment: seg.ID()})
	}
	if added, ok := filled.Fill(master, seg); !ok || added != seg.Entries() {
		t.Fatalf("Fill added %d entries (open %v), want %d", added, ok, seg.Entries())
	}
	if _, bytes := replicated.Replicate(&wire.ReplicateReq{Master: master, Segment: seg.ID(), Objects: objs}); bytes != seg.Accounted() {
		t.Fatalf("Replicate appended %d bytes, segment holds %d", bytes, seg.Accounted())
	}
	sealed := false
	if r, ref := filled.open[master][seg.ID()].data.At(0), replicated.open[master][seg.ID()].data.At(0); r.Checksum == 0 || ref.Checksum != 0 {
		t.Fatalf("checksums: filled %#x, replicated %#x; want the master's and none", r.Checksum, ref.Checksum)
	}
	compare := func() {
		for q := 0; q < 20; q++ {
			lo, hi := rng.Uint64(), rng.Uint64()
			if q == 0 {
				lo, hi = 0, ^uint64(0)
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			req := &wire.GetRecoveryDataReq{Master: master, Segment: seg.ID(), FirstHash: lo, LastHash: hi}
			got, gotBytes, _ := filled.RecoveryData(req)
			want, wantBytes, _ := replicated.RecoveryData(req)
			if q == 0 && len(got.Objects) != len(objs) {
				t.Fatalf("the whole range recovers %d of %d objects", len(got.Objects), len(objs))
			}
			if !reflect.DeepEqual(got, want) || gotBytes != wantBytes {
				t.Fatalf("sealed %v, hashes [%d, %d]: the filled replica recovers %d objects (%d bytes), the replicated one %d (%d)",
					sealed, lo, hi, len(got.Objects), gotBytes, len(want.Objects), wantBytes)
			}
		}
		inv := &wire.SegmentInventoryReq{Master: master}
		if got, want := filled.Inventory(inv), replicated.Inventory(inv); !reflect.DeepEqual(got, want) {
			t.Fatalf("sealed %v: inventory %+v, replicated %+v", sealed, got, want)
		}
	}
	compare()
	for _, b := range []*Backups{&filled, &replicated} {
		if _, r := b.Close(&wire.CloseSegmentReq{Master: master, Segment: seg.ID()}); r == nil {
			t.Fatal("close found no open replica")
		}
	}
	sealed = true
	compare()
}
