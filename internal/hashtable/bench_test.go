package hashtable

import "testing"

// Benchmarks of the master's object index. Lookup is on the read hot
// path and Put on the write one; HashKey runs once per client operation
// on both client and server.

const benchN = 1 << 16

func benchTable(n int) (*Table, []uint64) {
	t := New(n)
	hashes := make([]uint64, n)
	for i := 0; i < n; i++ {
		hashes[i] = HashKey(1, []byte{byte(i), byte(i >> 8), byte(i >> 16), 'k'})
		t.Insert(hashes[i], uint64(i))
	}
	return t, hashes
}

func BenchmarkHashKey(b *testing.B) {
	key := []byte("user0000000007")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkU64 = HashKey(42, key)
	}
}

func BenchmarkLookup(b *testing.B) {
	t, hashes := benchTable(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := t.Lookup(hashes[i&(benchN-1)], nil)
		if !ok {
			b.Fatal("missing key")
		}
		sinkU64 = ref
	}
}

// coldN entries make a directory of 32 MiB, far larger than L2: a probe
// of a random hash misses the cache.
const coldN = 1 << 20

// BenchmarkLookupPrefetched is the master's probe on a table far larger
// than L2, as is ("lookup") and with the bucket of the key eight lookups
// ahead prefetched first ("prefetched"): the overlap the simulated master
// gets from prefetching before its service time, and the real master from
// prefetching a batch's buckets before its first lookup.
func BenchmarkLookupPrefetched(b *testing.B) {
	t, hashes := benchTable(coldN)
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref, ok := t.Lookup(hashes[i&(coldN-1)], nil)
			if !ok {
				b.Fatal("missing key")
			}
			sinkU64 = ref
		}
	})
	b.Run("prefetched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Prefetch(hashes[(i+8)&(coldN-1)])
			ref, ok := t.Lookup(hashes[i&(coldN-1)], nil)
			if !ok {
				b.Fatal("missing key")
			}
			sinkU64 = ref
		}
	})
}

func BenchmarkInsertDelete(b *testing.B) {
	t, hashes := benchTable(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hashes[i&(benchN-1)]
		if _, ok := t.Delete(h, nil); !ok {
			b.Fatal("missing key")
		}
		t.Insert(h, uint64(i))
	}
}

// BenchmarkPut is the master's write: a Put of a held key (one probe that
// replaces) and of a key just deleted (one probe that fills a slot).
func BenchmarkPut(b *testing.B) {
	b.Run("replace", func(b *testing.B) {
		t, hashes := benchTable(benchN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Put(hashes[i&(benchN-1)], nil, uint64(i)); !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		t, hashes := benchTable(benchN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := hashes[i&(benchN-1)]
			if _, ok := t.Delete(h, nil); !ok {
				b.Fatal("missing key")
			}
			if _, ok := t.Put(h, nil, uint64(i)); ok {
				b.Fatal("deleted key still held")
			}
		}
	})
}

var sinkU64 uint64
