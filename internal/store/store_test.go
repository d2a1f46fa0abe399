package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/wire"
)

// The model: a map from key to the version that was put last. The store,
// whatever it did to its log and index along the way (rolls, cleaning
// passes, hand-offs), must answer like the map.

type modelKey struct {
	table uint64
	key   string
}

type modelObj struct {
	version  uint64
	valueLen uint32
	value    []byte // nil when virtual
}

type model struct {
	t    *testing.T
	rng  *rand.Rand
	st   *Store
	objs map[modelKey]modelObj
	// maxVersion is the highest version the store was ever handed or
	// handed out; every version it draws must be above it.
	maxVersion uint64
}

// The key space is small, so sequences overwrite and delete what they
// wrote, and the hashes collide (four values for sixteen keys), so the
// index has to tell keys apart by reading the log.
func (m *model) randKey() (modelKey, uint64) {
	k := modelKey{table: 1 + uint64(m.rng.Intn(2)), key: fmt.Sprintf("key%d", m.rng.Intn(8))}
	return k, hashtable.HashKey(k.table, []byte(k.key)) % 4
}

// apply appends o through Apply, as both masters do, and holds Apply to
// its promises: a version drawn above every version held unless o came
// with one, a delete of an absent key that draws nothing and appends
// nothing, a delete that names the segment of what it deletes, and roll
// called exactly when the head cannot take the entry, before it is
// appended.
func (m *model) apply(o wire.Object) {
	t, st := m.t, m.st
	k := modelKey{o.Table, string(o.Key)}
	_, held := m.objs[k]
	given := o.Version
	fresh := given == 0
	e := EntryOf(&o)
	needsRoll := st.Log.NeedsRoll(e.StorageSize())
	appends, counter := st.Log.Appends(), st.nextVersion
	rolled := false
	seg, status := st.Apply(&o, func() {
		if rolled || st.Log.Appends() != appends {
			t.Fatalf("Apply(%+v) rolled twice or after the append", o)
		}
		rolled = true
		st.Log.Roll()
	})
	if fresh && o.Tombstone && !held {
		if status != wire.StatusUnknownKey || rolled || st.Log.Appends() != appends || st.nextVersion != counter {
			t.Fatalf("delete of absent %v: %v, rolled %v, %d appends, counter %d → %d", k, status, rolled, st.Log.Appends()-appends, counter, st.nextVersion)
		}
		return
	}
	if status != wire.StatusOK {
		t.Fatalf("Apply(%+v) = %v, model holds the key: %v", o, status, held)
	}
	if rolled != needsRoll {
		t.Fatalf("Apply(%+v) rolled: %v, the head needed a roll: %v", o, rolled, needsRoll)
	}
	head := st.Log.Head()
	if st.Log.Appends() != appends+1 || seg != head.ID() {
		t.Fatalf("Apply(%+v) appended %d entries, to segment %d; the head is %d", o, st.Log.Appends()-appends, seg, head.ID())
	}
	if fresh && o.Version <= m.maxVersion {
		t.Fatalf("drew version %d with %d already held", o.Version, m.maxVersion)
	}
	if !fresh && o.Version != given {
		t.Fatalf("Apply(%+v) appended at version %d, not the version it came with", o, o.Version)
	}
	m.maxVersion = max(m.maxVersion, o.Version)
	if !o.Tombstone {
		m.objs[k] = modelObj{version: o.Version, valueLen: o.ValueLen, value: o.Value}
		return
	}
	delete(m.objs, k)
	if tomb, err := head.EntryAt(head.Entries() - 1); err != nil || tomb.Type != logstore.EntryTombstone || tomb.Version != o.Version {
		t.Fatalf("the head ends in %+v (%v), not the tombstone at version %d", tomb, err, o.Version)
	} else if _, live := st.Log.Segment(tomb.ObjectSegment); fresh && !live {
		t.Fatalf("tombstone names segment %d, which is not in the log", tomb.ObjectSegment)
	}
}

func (m *model) object(k modelKey, keyHash, version uint64) wire.Object {
	o := wire.Object{Table: k.table, KeyHash: keyHash, Key: []byte(k.key), Version: version}
	if m.rng.Intn(3) == 0 {
		o.ValueLen = uint32(m.rng.Intn(64)) // virtual: a length and no bytes
	} else {
		o.Value = make([]byte, m.rng.Intn(64))
		m.rng.Read(o.Value)
		o.ValueLen = uint32(len(o.Value))
	}
	return o
}

// forcedVersion is what replay and migration hand the store: any version,
// below, at or far above the counter.
func (m *model) forcedVersion() uint64 {
	return 1 + uint64(m.rng.Int63n(int64(m.maxVersion)+50))
}

func (m *model) step() {
	k, h := m.randKey()
	switch op := m.rng.Intn(20); {
	case op < 7: // a client write, an overwrite when the key is held: a fresh version
		m.apply(m.object(k, h, 0))
	case op < 9: // replay or migration: the version comes with the object
		m.apply(m.object(k, h, m.forcedVersion()))
	case op < 13: // a client delete, of a present or an absent key
		m.apply(wire.Object{Table: k.table, KeyHash: h, Key: []byte(k.key), Tombstone: true})
	case op < 14: // a replayed tombstone
		m.apply(wire.Object{Table: k.table, KeyHash: h, Key: []byte(k.key), Tombstone: true, Version: m.forcedVersion()})
	case op < 16: // migration hand-off
		m.st.Unindex(k.table, []byte(k.key), h)
		delete(m.objs, k)
	case op < 17:
		m.st.Log.Roll()
	case op < 19:
		if _, err := m.st.Clean(1 + m.rng.Intn(4)); err != nil {
			m.t.Fatalf("clean: %v", err)
		}
	default: // the coordinator reassigns ownership
		m.st.Tablets = nil
		for i := m.rng.Intn(4); i > 0; i-- {
			a, b := m.rng.Uint64(), m.rng.Uint64()
			m.st.Tablets = append(m.st.Tablets, wire.Tablet{Table: 1 + uint64(m.rng.Intn(2)), StartHash: min(a, b), EndHash: max(a, b)})
		}
	}
}

func (m *model) check() {
	t, st := m.t, m.st
	// Read agrees with the model on every key of the key space.
	for table := uint64(1); table <= 2; table++ {
		for i := 0; i < 8; i++ {
			k := modelKey{table, fmt.Sprintf("key%d", i)}
			r := st.Read(k.table, []byte(k.key), hashtable.HashKey(k.table, []byte(k.key))%4)
			want, held := m.objs[k]
			if found := r.Status == wire.StatusOK; found != held || !found && r.Status != wire.StatusUnknownKey {
				t.Fatalf("Read(%v) = %v, model holds it: %v", k, r.Status, held)
			}
			if !held {
				continue
			}
			if r.Version != want.version || r.ValueLen != want.valueLen ||
				(r.Value == nil) != (want.value == nil) || !bytes.Equal(r.Value, want.value) {
				t.Fatalf("Read(%v) = %+v, model holds %+v", k, r, want)
			}
		}
	}
	if st.Len() != len(m.objs) {
		t.Fatalf("Len = %d, model holds %d", st.Len(), len(m.objs))
	}
	// Walk the log: IsLive holds for exactly one entry per held key, the
	// one the model holds, and the log's live bytes are those entries plus
	// the tombstones it still carries (a tombstone is live until a
	// cleaning pass drops it).
	var liveBytes int64
	seen := make(map[modelKey]bool)
	if head := st.Log.Head(); head != nil {
		for id := uint64(1); id <= head.ID(); id++ {
			seg, ok := st.Log.Segment(id)
			if !ok {
				continue // cleaned
			}
			for i := 0; i < seg.Entries(); i++ {
				e, err := seg.EntryAt(i)
				if err != nil {
					t.Fatal(err)
				}
				if e.Type == logstore.EntryTombstone {
					liveBytes += int64(e.StorageSize())
					continue
				}
				if !st.IsLive(seg.RefAt(i), e) {
					continue
				}
				k := modelKey{e.Table, string(e.Key)}
				if want, held := m.objs[k]; !held || seen[k] || e.Version != want.version || e.ValueLen != want.valueLen {
					t.Fatalf("entry %d of segment %d is live: %+v; model holds %+v (%v), seen before: %v", i, id, e, want, held, seen[k])
				}
				seen[k] = true
				liveBytes += int64(e.StorageSize())
			}
		}
	}
	if len(seen) != len(m.objs) {
		t.Fatalf("%d live entries in the log, model holds %d", len(seen), len(m.objs))
	}
	if got := st.Log.LiveBytes(); got != liveBytes {
		t.Fatalf("Log.LiveBytes = %d, live entries sum to %d", got, liveBytes)
	}
	// Owns is Find over Tablets, and Find returns the first cover.
	for i := 0; i < 4; i++ {
		table, h := 1+uint64(m.rng.Intn(2)), m.rng.Uint64()
		var want *wire.Tablet
		for j := range st.Tablets {
			if tb := &st.Tablets[j]; tb.Table == table && tb.StartHash <= h && h <= tb.EndHash {
				want = tb
				break
			}
		}
		if got := Find(st.Tablets, table, h); got != want || st.Owns(table, h) != (want != nil) {
			t.Fatalf("Find(%d, %#x) = %v, want %v; Owns = %v", table, h, got, want, st.Owns(table, h))
		}
	}
}

// TestStoreAgainstModel is ROADMAP's "model-based fuzz" for the master,
// at the layer both masters share.
func TestStoreAgainstModel(t *testing.T) {
	sequences := 2000
	if testing.Short() {
		sequences = 200
	}
	run := func(seed int64) bool {
		m := &model{
			t:   t,
			rng: rand.New(rand.NewSource(seed)),
			// Segments of a few entries, so a sequence rolls and cleans.
			st:   New(logstore.Config{SegmentBytes: 400, TotalBytes: 1 << 20}),
			objs: make(map[modelKey]modelObj),
		}
		for i := 0; i < 80; i++ {
			m.step()
			m.check()
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: sequences}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitHashSpace(t *testing.T) {
	for span := 1; span <= 64; span++ {
		for n := 1; n <= 7; n++ {
			owners := make([]int32, n)
			for i := range owners {
				owners[i] = int32(10 + i)
			}
			tablets := SplitHashSpace(9, span, owners)
			if len(tablets) != span {
				t.Fatalf("span %d over %d owners: %d tablets", span, n, len(tablets))
			}
			next := uint64(0)
			for i, tb := range tablets {
				if tb.Table != 9 || tb.StartHash != next || tb.EndHash < tb.StartHash || tb.Master != owners[i%n] || tb.Recovering {
					t.Fatalf("span %d over %d owners: tablet %d = %+v, want start %#x and owner %d", span, n, i, tb, next, owners[i%n])
				}
				next = tb.EndHash + 1
			}
			if next != 0 { // the last range ends at 2^64-1, so its successor wraps
				t.Fatalf("span %d: ranges end at %#x, not at the top of the hash space", span, next-1)
			}
		}
	}
	// What both coordinators computed before the split was shared.
	for _, c := range []struct {
		span   int
		owners []int32
		want   []wire.Tablet
	}{
		{1, []int32{4}, []wire.Tablet{{Table: 9, StartHash: 0, EndHash: ^uint64(0), Master: 4}}},
		{2, []int32{1, 2}, []wire.Tablet{
			{Table: 9, StartHash: 0, EndHash: 1<<63 - 1, Master: 1},
			{Table: 9, StartHash: 1 << 63, EndHash: ^uint64(0), Master: 2},
		}},
		{3, []int32{1, 2}, []wire.Tablet{
			{Table: 9, StartHash: 0, EndHash: 0x5555555555555555, Master: 1},
			{Table: 9, StartHash: 0x5555555555555556, EndHash: 0xaaaaaaaaaaaaaaab, Master: 2},
			{Table: 9, StartHash: 0xaaaaaaaaaaaaaaac, EndHash: ^uint64(0), Master: 1},
		}},
	} {
		got := SplitHashSpace(9, c.span, c.owners)
		if len(got) != len(c.want) {
			t.Fatalf("span %d: %d tablets, want %d", c.span, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("span %d tablet %d = %+v, want %+v", c.span, i, got[i], c.want[i])
			}
		}
	}
}

// BenchmarkStorePutLookup is the per-item store work of a write and a
// read of a 1 KiB value, as both masters do them: Apply, then Read.
func BenchmarkStorePutLookup(b *testing.B) {
	const keys = 4096
	st := New(logstore.DefaultConfig())
	key := make([][]byte, keys)
	hash := make([]uint64, keys)
	for i := range key {
		key[i] = []byte(fmt.Sprintf("user%010d", i))
		hash[i] = hashtable.HashKey(1, key[i])
	}
	value := make([]byte, 1024)
	roll := func() {
		if st.Log.AccountedBytes() > 128<<20 {
			// Bound the benchmark's memory the way a master would: the
			// overwritten versions go.
			if _, err := st.Clean(16); err != nil {
				b.Fatal(err)
			}
		}
		st.Log.Roll()
	}
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % keys
		o := wire.Object{Table: 1, KeyHash: hash[k], Key: key[k], ValueLen: 1024, Value: value}
		if _, status := st.Apply(&o, roll); status != wire.StatusOK {
			b.Fatal(status)
		}
		if st.Read(1, key[k], hash[k]).Version != o.Version {
			b.Fatal("read missed what was just put")
		}
	}
}

func TestEntryToObject(t *testing.T) {
	e := logstore.Entry{
		Type:     logstore.EntryObject,
		Table:    3,
		KeyHash:  hashtable.HashKey(3, []byte("kk")),
		Key:      []byte("kk"),
		ValueLen: 77,
		Version:  9,
	}
	o := ObjectOf(e)
	if o.Table != 3 || o.ValueLen != 77 || o.Version != 9 || o.Tombstone {
		t.Fatalf("object = %+v", o)
	}
	if back := EntryOf(&o); back.Type != e.Type || back.KeyHash != e.KeyHash || string(back.Key) != "kk" || back.Version != 9 {
		t.Fatalf("entry = %+v, want %+v", back, e)
	}
	e.Type = logstore.EntryTombstone
	if o := ObjectOf(e); !o.Tombstone || EntryOf(&o).Type != logstore.EntryTombstone {
		t.Fatal("tombstone flag lost")
	}
}

func TestSplitRanges(t *testing.T) {
	tablets := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: 999}}
	parts := splitRanges(tablets, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	// Contiguous, non-overlapping, full coverage.
	if parts[0].FirstHash != 0 || parts[len(parts)-1].LastHash != 999 {
		t.Fatalf("bad bounds: %+v", parts)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].FirstHash != parts[i-1].LastHash+1 {
			t.Fatalf("gap between %d and %d: %+v", i-1, i, parts)
		}
	}
	if got := splitRanges(nil, 3); got != nil {
		t.Fatal("nil tablets should give nil will")
	}

	// A tablet over the whole hash space (a span-1 table): its 2^64 hashes
	// do not fit in a uint64, and it still splits into equal quarters that
	// tile the space.
	const quarter = uint64(1) << 62
	full := splitRanges([]wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0)}}, 4)
	want := []wire.WillPartition{
		{FirstHash: 0, LastHash: quarter - 1},
		{FirstHash: quarter, LastHash: 2*quarter - 1},
		{FirstHash: 2 * quarter, LastHash: 3*quarter - 1},
		{FirstHash: 3 * quarter, LastHash: ^uint64(0)},
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("full range into 4: %+v, want %+v", full, want)
	}
}
