// Package store is the master's object store: a hash-table index over the
// log-structured memory, with the rules both masters (the simulated
// internal/server and the real internal/realnode) serve by — which key
// ranges are owned, how versions are drawn, what an overwrite, a delete, a
// migration hand-off and a cleaning pass do to the index and to the log's
// liveness accounting. The packed-ref format the index stores is known
// here, in logstore and in hashtable only.
//
// It also holds the other side of the protocol, the rules both clients
// (internal/client and realnode.Client) decide by (client.go): what a
// response status asks of an operation (Judge, Round) and how a batch is
// split by owner (Group), with the tablet lookup (Find) they route by.
//
// And it holds the backup's rules both servers answer by (backup.go):
// Backups keeps each master's segment replicas as bytes copied out of the
// requests, and answers open, replicate, close, free, the inventory and
// the recovery fetch by key-hash range. With each answer it returns what
// the simulated backup charges for it (bytes appended or filtered, a
// first disk read); the real backup only holds its lock around the call.
//
// And it holds the coordinator's state both coordinators decide by
// (membership.go): Membership keeps the servers and their liveness, the
// tables and the tablet map, and splits a dead master's tablets into
// recovery partitions.
//
// And it holds the master's replication rules (replicas.go): Replicas
// keeps each segment's backups and the dead ones, and decides placement,
// substitutes and the recovery will.
//
// The store knows nothing about time, threads or networks. Every append
// goes through Apply, which decides when the head rolls; the roll itself
// is Apply's roll callback, because the simulated master opens and closes
// backup replicas across a roll. Serialisation (a sim.Mutex there, a
// sync.Mutex on the real master), CPU-cost charging and replication stay
// with the caller.
package store

import (
	"math/bits"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/wire"
)

// Store is one master's objects. Log and Tablets are the caller's to read
// and, for Tablets, to replace; the index and the version counter change
// only through the methods.
type Store struct {
	Log     *logstore.Log
	Tablets []wire.Tablet // owned key-hash ranges

	ht          *hashtable.Table
	nextVersion uint64
}

// New returns an empty store over a log of the given geometry. Its index
// starts at the smallest directory and doubles with what it holds: no
// master knows in advance how many objects it will be given.
func New(cfg logstore.Config) *Store {
	return &Store{Log: logstore.NewLog(cfg), ht: hashtable.New(0)}
}

// Find returns the tablet of tablets that covers (table, keyHash), or nil.
func Find(tablets []wire.Tablet, table, keyHash uint64) *wire.Tablet {
	for i := range tablets {
		t := &tablets[i]
		if t.Table == table && keyHash >= t.StartHash && keyHash <= t.EndHash {
			return t
		}
	}
	return nil
}

// SplitHashSpace cuts the whole key-hash space of table into span uniform
// ranges owned round-robin by owners (the paper's ServerSpan layout).
func SplitHashSpace(table uint64, span int, owners []int32) []wire.Tablet {
	tablets := make([]wire.Tablet, 0, span)
	step := ^uint64(0)/uint64(span) + 1
	var start uint64
	for i := 0; i < span; i++ {
		end := start + step - 1
		if i == span-1 || end < start {
			end = ^uint64(0)
		}
		tablets = append(tablets, wire.Tablet{Table: table, StartHash: start, EndHash: end, Master: owners[i%len(owners)]})
		if end == ^uint64(0) {
			break
		}
		start = end + 1
	}
	return tablets
}

// splitRanges cuts tablets' hash ranges into about n partitions, each
// tablet into the same number of equal parts (one when n is at most the
// number of tablets): a master's will, or the coordinator's split of a
// dead master that left none.
func splitRanges(tablets []wire.Tablet, n int) []wire.WillPartition {
	if len(tablets) == 0 || n <= 0 {
		return nil
	}
	if n > len(tablets) {
		// Split each tablet proportionally to reach ~n partitions.
		perTablet := (n + len(tablets) - 1) / len(tablets)
		var out []wire.WillPartition
		for _, t := range tablets {
			span := t.EndHash - t.StartHash + 1
			step := span / uint64(perTablet)
			if span == 0 {
				// The whole hash space: 2^64 wrapped to 0. perTablet is at
				// least 2, so 2^64/perTablet fits.
				step, _ = bits.Div64(1, 0, uint64(perTablet))
			} else if step == 0 {
				step = 1
			}
			start := t.StartHash
			for i := 0; i < perTablet; i++ {
				end := start + step - 1
				if i == perTablet-1 || end > t.EndHash || end < start {
					end = t.EndHash
				}
				out = append(out, wire.WillPartition{FirstHash: start, LastHash: end})
				if end == t.EndHash {
					break
				}
				start = end + 1
			}
		}
		return out
	}
	// n <= tablets: one partition per tablet (coarse but correct).
	out := make([]wire.WillPartition, 0, len(tablets))
	for _, t := range tablets {
		out = append(out, wire.WillPartition{FirstHash: t.StartHash, LastHash: t.EndHash})
	}
	return out
}

// Owns reports whether (table, keyHash) falls in an owned tablet.
func (s *Store) Owns(table, keyHash uint64) bool {
	return Find(s.Tablets, table, keyHash) != nil
}

// Len returns the number of objects indexed.
func (s *Store) Len() int { return s.ht.Len() }

// keyEq matches the index candidate whose log entry carries exactly
// (table, key).
func (s *Store) keyEq(table uint64, key []byte) hashtable.EqualFunc {
	return func(packed uint64) bool {
		e, err := s.Log.Get(logstore.UnpackRef(packed))
		return err == nil && e.Table == table && string(e.Key) == string(key)
	}
}

// Prefetch starts loading keyHash's index bucket into the cache, for a
// lookup, put or delete of the key that follows other work (see
// hashtable.Table.Prefetch).
func (s *Store) Prefetch(keyHash uint64) { s.ht.Prefetch(keyHash) }

// Read answers a read of (table, key): its indexed version, or
// StatusUnknownKey. The index candidate that matches is the answer, so a
// hit costs one log read, not one to compare and one to fetch. The Value
// is a view of the log's bytes, which are never written again once
// appended.
func (s *Store) Read(table uint64, key []byte, keyHash uint64) wire.MultiReadResult {
	var e logstore.Entry
	_, ok := s.ht.Lookup(keyHash, func(packed uint64) bool {
		var err error
		e, err = s.Log.Get(logstore.UnpackRef(packed))
		return err == nil && e.Table == table && string(e.Key) == string(key)
	})
	if !ok || e.Type != logstore.EntryObject {
		return wire.MultiReadResult{Status: wire.StatusUnknownKey}
	}
	return wire.MultiReadResult{Status: wire.StatusOK, Version: e.Version, ValueLen: e.ValueLen, Value: e.Value}
}

// Apply appends o to the log head and makes it the indexed version of its
// key: the one rule by which both masters append a write, a delete, a
// replayed or migrated object and a bulk-loaded record.
//
// An object that arrives with a version keeps it (replay, migration). One
// without draws a fresh version above every version held or handed out,
// and a tombstone without one is a delete of the indexed version, which
// answers StatusUnknownKey, drawing nothing, when the key is not indexed.
// roll is called before the append exactly when the head cannot take the
// entry, and must roll the log (Log.Roll); the simulated master opens and
// closes backup replicas around it. A nil roll rolls the log alone.
//
// On StatusOK o.Version is the version appended and the segment it landed
// in is returned; a tombstone's value is dropped. The version counter
// never stays below a version held, so a replayed or migrated object
// cannot be followed by a write at a lower version.
func (s *Store) Apply(o *wire.Object, roll func()) (uint64, wire.Status) {
	if o.Tombstone {
		o.ValueLen, o.Value = 0, nil
	}
	e := EntryOf(o)
	if e.Version == 0 {
		if o.Tombstone {
			packed, ok := s.ht.Lookup(o.KeyHash, s.keyEq(o.Table, o.Key))
			if !ok {
				return 0, wire.StatusUnknownKey
			}
			e.ObjectSegment = logstore.UnpackRef(packed).Segment
		}
		s.nextVersion++
		e.Version = s.nextVersion
	}
	if s.Log.NeedsRoll(e.StorageSize()) {
		if roll == nil {
			s.Log.Roll()
		} else {
			roll()
		}
	}
	ref, err := s.put(e)
	if err != nil {
		return 0, wire.StatusError
	}
	o.Version = e.Version
	return ref.Segment, wire.StatusOK
}

// put appends entry to the log head and makes it the indexed version of
// its key: the displaced version is marked dead, and a tombstone leaves
// the key unindexed.
func (s *Store) put(entry logstore.Entry) (logstore.Ref, error) {
	ref, err := s.Log.Append(entry)
	if err != nil {
		return ref, err
	}
	if entry.Version > s.nextVersion {
		s.nextVersion = entry.Version
	}
	eq := s.keyEq(entry.Table, entry.Key)
	if entry.Type == logstore.EntryTombstone {
		if old, ok := s.ht.Delete(entry.KeyHash, eq); ok {
			_ = s.Log.MarkDead(logstore.UnpackRef(old)) // old came out of the index: it is in the log
		}
		return ref, nil
	}
	if old, ok := s.ht.Put(entry.KeyHash, eq, ref.Packed()); ok {
		_ = s.Log.MarkDead(logstore.UnpackRef(old)) // as above
	}
	return ref, nil
}

// Unindex drops (table, key) from the index and marks its entry dead, with
// no tombstone: the object now lives on another master (migration).
func (s *Store) Unindex(table uint64, key []byte, keyHash uint64) {
	if old, ok := s.ht.Delete(keyHash, s.keyEq(table, key)); ok {
		_ = s.Log.MarkDead(logstore.UnpackRef(old)) // as in put
	}
}

// IsLive reports whether the object entry e at ref is the indexed version
// of its key.
func (s *Store) IsLive(ref logstore.Ref, e logstore.Entry) bool {
	cur, ok := s.ht.Lookup(e.KeyHash, s.keyEq(e.Table, e.Key))
	return ok && logstore.UnpackRef(cur) == ref
}

// Clean runs one cleaning pass over up to maxSegments victims (see
// logstore.Log.Clean), repointing the index at each relocated object.
func (s *Store) Clean(maxSegments int) (logstore.CleanStats, error) {
	return s.Log.Clean(maxSegments, s.IsLive, func(old, new logstore.Ref, e logstore.Entry) {
		if e.Type == logstore.EntryObject {
			s.ht.Replace(e.KeyHash, func(r uint64) bool { return r == old.Packed() }, new.Packed())
		}
	})
}
