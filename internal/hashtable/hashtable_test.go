package hashtable

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertLookup(t *testing.T) {
	ht := New(0)
	ht.Insert(42, 1001)
	ref, ok := ht.Lookup(42, nil)
	if !ok || ref != 1001 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(43, nil); ok {
		t.Fatal("lookup of absent hash succeeded")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d", ht.Len())
	}
}

func TestEqualFuncDisambiguatesCollisions(t *testing.T) {
	ht := New(0)
	// Two distinct keys with the same 64-bit hash.
	ht.Insert(7, 100)
	ht.Insert(7, 200)
	ref, ok := ht.Lookup(7, func(r uint64) bool { return r == 200 })
	if !ok || ref != 200 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	ref, ok = ht.Lookup(7, func(r uint64) bool { return r == 100 })
	if !ok || ref != 100 {
		t.Fatalf("lookup = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(7, func(r uint64) bool { return false }); ok {
		t.Fatal("eq=false lookup matched")
	}
}

func TestReplace(t *testing.T) {
	ht := New(0)
	ht.Insert(9, 500)
	old, ok := ht.Replace(9, nil, 600)
	if !ok || old != 500 {
		t.Fatalf("replace = %d, %v", old, ok)
	}
	ref, _ := ht.Lookup(9, nil)
	if ref != 600 {
		t.Fatalf("ref = %d", ref)
	}
	if _, ok := ht.Replace(10, nil, 1); ok {
		t.Fatal("replace of absent entry succeeded")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d after replace", ht.Len())
	}
}

func TestDelete(t *testing.T) {
	ht := New(0)
	ht.Insert(1, 10)
	ht.Insert(2, 20)
	ref, ok := ht.Delete(1, nil)
	if !ok || ref != 10 {
		t.Fatalf("delete = %d, %v", ref, ok)
	}
	if _, ok := ht.Lookup(1, nil); ok {
		t.Fatal("deleted entry still found")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d", ht.Len())
	}
	if _, ok := ht.Delete(1, nil); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestBucketOverflowChains(t *testing.T) {
	ht := New(0)
	// Force more entries into one bucket than it has slots: same low bits,
	// table kept small by inserting few total entries.
	base := uint64(5)
	n := slotsPerBucket + 4
	for i := 0; i < n; i++ {
		ht.Insert(base+uint64(i)*uint64(ht.directorySize()), uint64(1000+i))
	}
	if ht.OverflowBuckets() == 0 {
		t.Fatal("expected overflow buckets")
	}
	for i := 0; i < n; i++ {
		h := base + uint64(i)*uint64(ht.directorySize())
		want := uint64(1000 + i)
		if ref, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok || ref != want {
			t.Fatalf("entry %d lost in overflow chain", i)
		}
	}
}

func TestDeleteFreesEmptiedOverflowBuckets(t *testing.T) {
	ht := New(0)
	dir := uint64(ht.directorySize())
	// 24 colliding entries fill ceil(24/slots) buckets: the directory
	// bucket and a chain of the rest.
	const n = 24
	wantChain := (n+slotsPerBucket-1)/slotsPerBucket - 1
	for i := 0; i < n; i++ {
		ht.Insert(5+uint64(i)*dir, uint64(1000+i))
	}
	if got := ht.OverflowBuckets(); got != wantChain {
		t.Fatalf("overflow buckets = %d, want %d", got, wantChain)
	}
	slab := len(ht.spill)
	// Deleting everything must unlink and stop counting every chain bucket.
	for i := 0; i < n; i++ {
		want := uint64(1000 + i)
		if _, ok := ht.Delete(5+uint64(i)*dir, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("entry %d not deleted", i)
		}
	}
	if got := ht.OverflowBuckets(); got != 0 {
		t.Fatalf("overflow buckets after drain = %d, want 0", got)
	}
	if ht.Len() != 0 {
		t.Fatalf("len = %d", ht.Len())
	}
	// The emptied chain must not strand later inserts: reinsert and find.
	for i := 0; i < n; i++ {
		ht.Insert(5+uint64(i)*dir, uint64(2000+i))
	}
	for i := 0; i < n; i++ {
		want := uint64(2000 + i)
		if _, ok := ht.Lookup(5+uint64(i)*dir, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("entry %d lost after reinsert", i)
		}
	}
	// The rebuilt chain came off the free list, not out of fresh slab.
	if len(ht.spill) != slab || ht.OverflowBuckets() != wantChain {
		t.Fatalf("slab %d buckets, %d chained after reinsert; want %d, %d", len(ht.spill), ht.OverflowBuckets(), slab, wantChain)
	}
	checkChains(t, ht)
}

func TestGrowRetainsEntries(t *testing.T) {
	ht := New(0)
	dir0 := ht.directorySize()
	n := 10_000
	for i := 0; i < n; i++ {
		ht.Insert(HashKey(1, []byte(fmt.Sprintf("key%d", i))), uint64(i))
	}
	if ht.directorySize() == dir0 {
		t.Fatal("directory never grew")
	}
	if ht.Len() != n {
		t.Fatalf("len = %d", ht.Len())
	}
	for i := 0; i < n; i++ {
		want := uint64(i)
		h := HashKey(1, []byte(fmt.Sprintf("key%d", i)))
		if _, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok {
			t.Fatalf("key%d lost after grow", i)
		}
	}
}

func TestSizeHint(t *testing.T) {
	ht := New(100_000)
	if ht.directorySize()*maxLoad < 100_000 {
		t.Fatalf("directory %d too small for hint", ht.directorySize())
	}
}

func TestHashKeyDistinguishesTables(t *testing.T) {
	if HashKey(1, []byte("k")) == HashKey(2, []byte("k")) {
		t.Fatal("same hash across tables")
	}
	if HashKey(1, []byte("a")) == HashKey(1, []byte("b")) {
		t.Fatal("same hash across keys")
	}
}

// modelKey maps a key id to its hash. Ids k and k+128 share a hash, so
// only eq tells them apart, and the low bits take 24 values, so chains
// form at every directory size the model reaches.
func modelKey(k byte) uint64 {
	k &= 127
	return uint64(k%24) | uint64(k)<<32
}

// modelStats reports what a run exercised.
type modelStats struct {
	putGrows    int // doublings that happened inside a Put
	reusedSpill int // overflow buckets taken off the free list
}

// runModel drives the table and a reference map with the operations ops
// encodes, a (selector, key id) byte pair each, and checks they agree at
// every step: Put, Insert of an absent key, Replace, Delete and Lookup,
// and the chain invariants checkChains states.
func runModel(t *testing.T, ops []byte) modelStats {
	t.Helper()
	var st modelStats
	ht := New(0)
	model := map[byte]uint64{} // key id -> ref
	keyOf := map[uint64]byte{} // ref -> key id; refs are never reused
	ref := uint64(0)
	eqFor := func(k byte) EqualFunc {
		return func(r uint64) bool { return keyOf[r] == k }
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, k := ops[i]%5, ops[i+1]
		h, eq := modelKey(k), eqFor(k)
		want, present := model[k]
		ref++
		switch op {
		case 0, 1: // put
			dir, slab, free := ht.directorySize(), len(ht.spill), ht.free
			keyOf[ref] = k
			old, replaced := ht.Put(h, eq, ref)
			if replaced != present || (present && old != want) {
				t.Fatalf("op %d: put(%d) = %d,%v; model %d,%v", i/2, k, old, replaced, want, present)
			}
			model[k] = ref
			if ht.directorySize() != dir {
				st.putGrows++
			} else if free != 0 && ht.free != free && len(ht.spill) == slab {
				st.reusedSpill++
			}
		case 2: // insert, which must not be given a key it holds
			if present {
				break
			}
			keyOf[ref] = k
			ht.Insert(h, ref)
			model[k] = ref
		case 3: // replace
			keyOf[ref] = k
			old, ok := ht.Replace(h, eq, ref)
			if ok != present || (present && old != want) {
				t.Fatalf("op %d: replace(%d) = %d,%v; model %d,%v", i/2, k, old, ok, want, present)
			}
			if present {
				model[k] = ref
			}
		case 4: // delete
			old, ok := ht.Delete(h, eq)
			if ok != present || (present && old != want) {
				t.Fatalf("op %d: delete(%d) = %d,%v; model %d,%v", i/2, k, old, ok, want, present)
			}
			delete(model, k)
		}
		got, ok := ht.Lookup(h, eq)
		want, present = model[k]
		if ok != present || got != want {
			t.Fatalf("op %d: lookup(%d) = %d,%v; model %d,%v", i/2, k, got, ok, want, present)
		}
		if ht.Len() != len(model) {
			t.Fatalf("op %d: len %d != model %d", i/2, ht.Len(), len(model))
		}
		checkChains(t, ht)
	}
	for k, want := range model {
		if got, ok := ht.Lookup(modelKey(k), eqFor(k)); !ok || got != want {
			t.Fatalf("key %d: lookup = %d,%v, model %d", k, got, ok, want)
		}
	}
	return st
}

// checkChains walks every chain and the free list: the chained buckets
// are what OverflowBuckets counts, none of them is empty, they hold Len
// entries with the directory, and every slab bucket is chained or free.
func checkChains(t *testing.T, ht *Table) {
	t.Helper()
	chained, entries := 0, 0
	for i := range ht.buckets {
		b := &ht.buckets[i]
		entries += bits.OnesCount8(b.used)
		for b = next(ht.spill, b); b != nil; b = next(ht.spill, b) {
			chained++
			entries += bits.OnesCount8(b.used)
			if b.used == 0 {
				t.Fatal("an empty overflow bucket is still chained")
			}
		}
	}
	free := 0
	for i := ht.free; i != 0; i = ht.spill[i-1].next {
		free++
	}
	if chained != ht.OverflowBuckets() || entries != ht.Len() || chained+free != len(ht.spill) {
		t.Fatalf("walk finds %d chained, %d free, %d entries; table says %d overflow, %d slab, %d entries",
			chained, free, entries, ht.OverflowBuckets(), len(ht.spill), ht.Len())
	}
}

// TestModelEquivalence runs the model on random operation streams and
// checks that they reached what the model is for: a doubling inside a Put
// and an overflow bucket reused from the free list.
func TestModelEquivalence(t *testing.T) {
	var total modelStats
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 20_000)
		rand.New(rand.NewSource(seed)).Read(ops)
		st := runModel(t, ops)
		total.putGrows += st.putGrows
		total.reusedSpill += st.reusedSpill
	}
	if total.putGrows == 0 || total.reusedSpill == 0 {
		t.Fatalf("model runs exercised %d doublings inside Put and %d free-list reuses; want both", total.putGrows, total.reusedSpill)
	}
}

// FuzzTable runs the model on fuzzed operation streams.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 129, 4, 1, 3, 129, 2, 1})
	grow := make([]byte, 0, 400)
	for k := 0; k < 200; k++ {
		grow = append(grow, 0, byte(k))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) { runModel(t, ops) })
}

// TestIndexHoldsNoPointers pins the bucket geometry: no pointer for the
// collector to scan, two cache lines, the refs on the second.
func TestIndexHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(bucket{}), "bucket")
	if got := unsafe.Sizeof(bucket{}); got != 128 {
		t.Errorf("bucket is %d bytes, want 128", got)
	}
	if got := unsafe.Offsetof(bucket{}.refs); got != 64 {
		t.Errorf("refs at offset %d, want 64", got)
	}
}

// TestOpsDoNotAllocate pins that Put (a replace or a new key), Replace,
// Lookup and Delete allocate nothing when the directory does not double.
func TestOpsDoNotAllocate(t *testing.T) {
	ht := New(0)
	const n = 1000
	for i := 0; i < n; i++ {
		ht.Insert(HashKey(1, []byte(fmt.Sprintf("key%d", i))), uint64(i))
	}
	h := HashKey(1, []byte("key7"))
	var want uint64 = 7
	eq := func(r uint64) bool { return r == want }
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ht.Put(h, eq, want); !ok {
			t.Fatal("put missed a held key")
		}
		if _, ok := ht.Replace(h, eq, want); !ok {
			t.Fatal("replace missed")
		}
		if _, ok := ht.Lookup(h, eq); !ok {
			t.Fatal("lookup missed")
		}
		if _, ok := ht.Delete(h, eq); !ok {
			t.Fatal("delete missed")
		}
		if _, ok := ht.Put(h, eq, want); ok {
			t.Fatal("put of a deleted key replaced")
		}
	})
	if allocs != 0 {
		t.Fatalf("ops allocate %v objects, want 0", allocs)
	}
}

// TestInsertsAllocatePerDoubling pins that filling a table from New(0)
// allocates the table and its first directory, then at most two objects
// per doubling: overflow buckets come out of the slab.
func TestInsertsAllocatePerDoubling(t *testing.T) {
	const n = 50_000
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = HashKey(1, []byte(fmt.Sprintf("key%d", i)))
	}
	var doublings int
	allocs := testing.AllocsPerRun(1, func() {
		ht := New(0)
		for i, h := range hashes {
			ht.Insert(h, uint64(i))
		}
		doublings = bits.Len(uint(ht.directorySize()/minBuckets)) - 1
	})
	if doublings == 0 || allocs > float64(2+2*doublings) {
		t.Fatalf("%d inserts: %v allocations over %d doublings, want at most %d", n, allocs, doublings, 2+2*doublings)
	}
}

func TestQuickInsertThenFind(t *testing.T) {
	f := func(keys [][]byte) bool {
		ht := New(0)
		refs := map[string]uint64{}
		for i, k := range keys {
			s := string(k)
			if _, dup := refs[s]; dup {
				continue
			}
			ref := uint64(i) + 1
			ht.Insert(HashKey(5, k), ref)
			refs[s] = ref
		}
		for s, want := range refs {
			h := HashKey(5, []byte(s))
			if _, ok := ht.Lookup(h, func(r uint64) bool { return r == want }); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
