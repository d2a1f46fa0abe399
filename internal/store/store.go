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
// The store knows nothing about time, threads or networks. Rolling the
// head stays with the caller (if st.Log.NeedsRoll(size) { ... }) because
// the simulated master opens and closes backup replicas across a roll;
// serialisation (a sim.Mutex there, a sync.Mutex on the real master),
// CPU-cost charging and replication stay with the caller too.
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

// SplitRanges cuts tablets' hash ranges into about n partitions, each
// tablet into the same number of equal parts (one when n is at most the
// number of tablets): a master's will, or the coordinator's split of a
// dead master that left none.
func SplitRanges(tablets []wire.Tablet, n int) []wire.WillPartition {
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

// Lookup makes e a view of the log entry indexed for (table, key). The
// candidate that matches is the answer, so a hit costs one log read, not
// one to compare and one to fetch; e is the caller's so that the 100-byte
// entry is written once.
func (s *Store) Lookup(e *logstore.Entry, table uint64, key []byte, keyHash uint64) bool {
	_, ok := s.ht.Lookup(keyHash, func(packed uint64) bool {
		var err error
		*e, err = s.Log.Get(logstore.UnpackRef(packed))
		return err == nil && e.Table == table && string(e.Key) == string(key)
	})
	return ok
}

// NextVersion draws a version above every version the store holds or has
// handed out.
func (s *Store) NextVersion() uint64 {
	s.nextVersion++
	return s.nextVersion
}

// Put appends entry to the log head (the caller has rolled if
// Log.NeedsRoll said so) and makes it the indexed version of its key: the
// displaced version is marked dead, and a tombstone leaves the key
// unindexed. The version counter never stays below a version held, so a
// replayed or migrated object cannot be followed by a write at a lower
// version.
func (s *Store) Put(entry logstore.Entry) (logstore.Ref, error) {
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

// Tombstone returns the tombstone that deletes the indexed version of
// (table, key), at a fresh version, for the caller to Put; false when the
// key is not indexed.
func (s *Store) Tombstone(table uint64, key []byte, keyHash uint64) (logstore.Entry, bool) {
	packed, ok := s.ht.Lookup(keyHash, s.keyEq(table, key))
	if !ok {
		return logstore.Entry{}, false
	}
	return logstore.Entry{
		Type:          logstore.EntryTombstone,
		Table:         table,
		KeyHash:       keyHash,
		Key:           key,
		Version:       s.NextVersion(),
		ObjectSegment: logstore.UnpackRef(packed).Segment,
	}, true
}

// Unindex drops (table, key) from the index and marks its entry dead, with
// no tombstone: the object now lives on another master (migration).
func (s *Store) Unindex(table uint64, key []byte, keyHash uint64) {
	if old, ok := s.ht.Delete(keyHash, s.keyEq(table, key)); ok {
		_ = s.Log.MarkDead(logstore.UnpackRef(old)) // as in Put
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
