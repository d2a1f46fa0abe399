// Package hashtable implements the master's object index, mapping 64-bit
// key hashes to packed log references, in the style of RAMCloud's
// cache-line-bucket hash table: a directory of buckets that doubles when
// the table gets dense, each bucket holding seven (hash, ref) slots and a
// link to an overflow chain.
//
// The table stores full 64-bit hashes but does not store keys: distinct
// keys can share a hash, so lookups take an equality callback that checks
// the candidate's key in the log, exactly as RAMCloud does.
//
// A bucket is two 64-byte cache lines. The first holds the seven hashes,
// the occupancy bitmask (bit i = slot i used) and the overflow link; the
// second holds the seven refs. A probe that misses reads the first line
// only, and a hash match reads the adjacent one. Overflow buckets live in
// a per-table slab and are chained by index (1 + slab index, 0 for none),
// so no bucket holds a pointer: the collector never scans the directory,
// and an overflow bucket is never an allocation of its own. Buckets a
// Delete empties go on a free list threaded through the same link.
//
// Put walks a chain once: it replaces the entry its equality callback
// matches, or fills the first free slot it passed. Lookup, Put, Replace
// and Delete allocate nothing unless the directory doubles.
//
// Prefetch asks for a hash's directory bucket ahead of the probe, as
// RAMCloud's master does before it looks a key up: a caller that has
// other work between learning the hash and probing (the simulated
// master's service time, the real master's other batch items) overlaps
// the bucket's cache miss with it. It is PREFETCHT0 on the bucket's two
// cache lines on amd64 and nothing elsewhere; it changes no result.
package hashtable

import "math/bits"

const slotsPerBucket = 7

// fullMask has one bit set per slot.
const fullMask = uint8(1<<slotsPerBucket - 1)

// maxLoad is entries per directory bucket beyond which the table doubles
// (5 of 7 slots used on average).
const maxLoad = 5

// minBuckets is the smallest directory.
const minBuckets = 16

type bucket struct {
	// First cache line: what a probe that misses reads.
	hashes [slotsPerBucket]uint64
	used   uint8  // occupancy bitmask; bit i covers slot i
	next   uint32 // overflow link: 1 + index into the slab, 0 for none
	// Second cache line.
	refs [slotsPerBucket]uint64
	_    uint64
}

// EqualFunc reports whether the entry referenced by ref is the key the
// caller is looking for.
type EqualFunc func(ref uint64) bool

// Table is the hash table. Construct with New.
type Table struct {
	buckets []bucket // the directory
	spill   []bucket // overflow buckets, chained by 1 + index
	free    uint32   // first emptied overflow bucket (1 + index), 0 for none
	mask    uint64
	n       int

	overflowBuckets int
}

// New returns a table with an initial directory sized for at least
// sizeHint entries (minimum 16 buckets).
func New(sizeHint int) *Table {
	nb := minBuckets
	for nb*maxLoad < sizeHint {
		nb *= 2
	}
	t := &Table{}
	t.alloc(nb)
	return t
}

// alloc gives the table an empty directory of nb buckets and, in the same
// allocation, a slab with room for the overflow a table of random hashes
// reaches before it doubles again (about an eighth of the directory at 5
// entries a bucket; a quarter leaves a margin).
func (t *Table) alloc(nb int) {
	all := make([]bucket, nb+nb/4)
	t.buckets = all[:nb:nb]
	t.spill = all[nb:nb]
	t.free = 0
	t.mask = uint64(nb - 1)
	t.overflowBuckets = 0
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// OverflowBuckets returns the number of chained buckets (a health metric).
func (t *Table) OverflowBuckets() int { return t.overflowBuckets }

// directorySize returns the number of top-level buckets.
func (t *Table) directorySize() int { return len(t.buckets) }

// next returns the bucket chained after b in spill, or nil at the end of
// the chain.
func next(spill []bucket, b *bucket) *bucket {
	if b.next == 0 {
		return nil
	}
	return &spill[b.next-1]
}

// match returns the slot of b holding hash whose referent satisfies eq,
// or -1. A nil eq matches any entry with the hash.
func (b *bucket) match(hash uint64, eq EqualFunc) int {
	for m := b.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		if b.hashes[i] == hash && (eq == nil || eq(b.refs[i])) {
			return i
		}
	}
	return -1
}

// fill stores (hash, ref) in b's first free slot; b is not full.
func (b *bucket) fill(hash, ref uint64) {
	i := bits.TrailingZeros8(^b.used)
	b.hashes[i] = hash
	b.refs[i] = ref
	b.used |= 1 << i
}

// Prefetch starts loading the directory bucket of hash into the cache. A
// Lookup, Put, Replace or Delete of hash that follows finds it there
// unless the directory doubled or the lines were evicted in between.
func (t *Table) Prefetch(hash uint64) {
	prefetchBucket(&t.buckets[hash&t.mask])
}

// Lookup finds an entry with the given hash whose referent satisfies eq.
// A nil eq matches any entry with the hash.
func (t *Table) Lookup(hash uint64, eq EqualFunc) (uint64, bool) {
	for b := &t.buckets[hash&t.mask]; b != nil; b = next(t.spill, b) {
		if i := b.match(hash, eq); i >= 0 {
			return b.refs[i], true
		}
	}
	return 0, false
}

// Put makes ref the entry for the key eq matches under hash: it replaces
// that entry and returns its previous ref, or, when none matched, adds a
// new entry (replaced is false). It walks the chain once and fills the
// first free slot it passed.
func (t *Table) Put(hash uint64, eq EqualFunc, ref uint64) (old uint64, replaced bool) {
	var room *bucket
	tail := uint32(0)
	b := &t.buckets[hash&t.mask]
	for {
		if i := b.match(hash, eq); i >= 0 {
			old = b.refs[i]
			b.refs[i] = ref
			return old, true
		}
		if room == nil && b.used != fullMask {
			room = b
		}
		if b.next == 0 {
			break
		}
		tail = b.next
		b = &t.spill[tail-1]
	}
	switch {
	case t.n >= len(t.buckets)*maxLoad:
		t.grow()
		t.insertNoGrow(hash, ref)
	case room != nil:
		room.fill(hash, ref)
	default:
		t.chain(hash, tail).fill(hash, ref)
	}
	t.n++
	return 0, false
}

// Insert adds a new entry. It does not check for duplicates; use Put to
// add or replace a key.
func (t *Table) Insert(hash uint64, ref uint64) {
	if t.n >= len(t.buckets)*maxLoad {
		t.grow()
	}
	t.insertNoGrow(hash, ref)
	t.n++
}

func (t *Table) insertNoGrow(hash uint64, ref uint64) {
	tail := uint32(0)
	b := &t.buckets[hash&t.mask]
	for b.used == fullMask {
		if b.next == 0 {
			b = t.chain(hash, tail)
			break
		}
		tail = b.next
		b = &t.spill[tail-1]
	}
	b.fill(hash, ref)
}

// chain links an empty overflow bucket after the last bucket of hash's
// chain, tail (1 + its slab index, 0 for the directory bucket), and
// returns it. It takes an emptied bucket off the free list, or the next
// one of the slab; only a slab that runs out is reallocated, and the
// links, being indexes, survive the move.
func (t *Table) chain(hash uint64, tail uint32) *bucket {
	idx := t.free
	if idx != 0 {
		t.free = t.spill[idx-1].next
		t.spill[idx-1] = bucket{}
	} else {
		t.spill = append(t.spill, bucket{})
		idx = uint32(len(t.spill))
	}
	if tail == 0 {
		t.buckets[hash&t.mask].next = idx
	} else {
		t.spill[tail-1].next = idx
	}
	t.overflowBuckets++
	return &t.spill[idx-1]
}

// Replace updates the ref of an existing entry (found by hash + eq) and
// returns the previous ref. ok is false when no entry matched.
func (t *Table) Replace(hash uint64, eq EqualFunc, newRef uint64) (old uint64, ok bool) {
	for b := &t.buckets[hash&t.mask]; b != nil; b = next(t.spill, b) {
		if i := b.match(hash, eq); i >= 0 {
			old = b.refs[i]
			b.refs[i] = newRef
			return old, true
		}
	}
	return 0, false
}

// Delete removes an entry and returns its ref. ok is false when no entry
// matched. Overflow buckets left empty by the removal are unlinked from
// the chain and put on the free list, so they are neither scanned again
// nor counted as overflow.
func (t *Table) Delete(hash uint64, eq EqualFunc) (ref uint64, ok bool) {
	var prev *bucket
	for b := &t.buckets[hash&t.mask]; b != nil; prev, b = b, next(t.spill, b) {
		i := b.match(hash, eq)
		if i < 0 {
			continue
		}
		ref = b.refs[i]
		b.used &^= 1 << i
		t.n--
		if b.used == 0 && prev != nil {
			// The overflow bucket is empty: unlink it and free it.
			idx := prev.next
			prev.next = b.next
			b.next = t.free
			t.free = idx
			t.overflowBuckets--
		}
		return ref, true
	}
	return 0, false
}

// grow doubles the directory and rehashes every entry.
func (t *Table) grow() {
	dir, spill := t.buckets, t.spill
	t.alloc(2 * len(dir))
	for i := range dir {
		for b := &dir[i]; b != nil; b = next(spill, b) {
			for m := b.used; m != 0; m &= m - 1 {
				s := bits.TrailingZeros8(m)
				t.insertNoGrow(b.hashes[s], b.refs[s])
			}
		}
	}
}

// FNV-1a 64-bit, the key-hash function used throughout the system.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashKey hashes a (table, key) pair to the 64-bit key-hash space. The
// 8 bytes of the table id are folded in as one unrolled word (identical
// value to the former byte loop, without the loop-carried counter), then
// the key bytes are mixed in.
func HashKey(table uint64, key []byte) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ (table & 0xff)) * fnvPrime
	h = (h ^ (table >> 8 & 0xff)) * fnvPrime
	h = (h ^ (table >> 16 & 0xff)) * fnvPrime
	h = (h ^ (table >> 24 & 0xff)) * fnvPrime
	h = (h ^ (table >> 32 & 0xff)) * fnvPrime
	h = (h ^ (table >> 40 & 0xff)) * fnvPrime
	h = (h ^ (table >> 48 & 0xff)) * fnvPrime
	h = (h ^ (table >> 56)) * fnvPrime
	for _, c := range key {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}
