package server

import (
	"fmt"
	"slices"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the master role around its write path (writeOp,
// write.go): tablet ownership and admission, reads and read batches, the
// write path's costs and replication request, the replacement of a backup
// that missed a deadline, and bulk loading.

// AssignTablet gives the master ownership of a key-hash range. Called by
// the coordinator's configuration plane.
func (s *Server) AssignTablet(t wire.Tablet) {
	t.Master = s.id
	s.st.Tablets = append(s.st.Tablets, t)
}

// DropTablets removes ownership of every tablet of a table.
func (s *Server) DropTablets(table uint64) {
	s.st.Tablets = slices.DeleteFunc(s.st.Tablets, func(t wire.Tablet) bool { return t.Table == table })
}

// Tablets returns a copy of the master's owned tablets.
func (s *Server) Tablets() []wire.Tablet {
	return append([]wire.Tablet(nil), s.st.Tablets...)
}

// admit is the check every key of a client request passes before it is
// served: a key this master does not own answers StatusWrongServer (and
// is counted), one inside a range mid-migration StatusRetry. An admitted
// key's index bucket starts loading, to land while the service time, or
// the log head, is waited for.
func (s *Server) admit(table, keyHash uint64) wire.Status {
	if !s.st.Owns(table, keyHash) {
		s.stats.WrongServer.Inc()
		return wire.StatusWrongServer
	}
	if s.frozenKey(table, keyHash) {
		return wire.StatusRetry
	}
	s.st.Prefetch(keyHash)
	return wire.StatusOK
}

// startRead is the prefix of a read: admission, which may answer it. It
// returns the read's service time.
func (w *worker) startRead(req rpc.Request, m *wire.ReadReq) (sim.Duration, bool) {
	s := w.s
	keyHash := hashtable.HashKey(m.Table, m.Key)
	if status := s.admit(m.Table, keyHash); status != wire.StatusOK {
		s.ep.Reply(req, &wire.ReadResp{Status: status})
		return 0, false
	}
	w.keyHash = keyHash
	return sim.Scale(s.cfg.Costs.Read, s.interference()), true
}

// finishRead is the tail of a read: the lookup and the answer.
func (w *worker) finishRead(req rpc.Request, m *wire.ReadReq) {
	r := w.s.read(m.Table, m.Key, w.keyHash)
	w.s.ep.Reply(req, &wire.ReadResp{Status: r.Status, Version: r.Version, ValueLen: r.ValueLen, Value: r.Value})
}

// read looks an admitted key up, counting a hit.
func (s *Server) read(table uint64, key []byte, keyHash uint64) wire.MultiReadResult {
	r := s.st.Read(table, key, keyHash)
	if r.Status == wire.StatusOK {
		s.stats.ReadsOK.Inc()
	}
	return r
}

// appendCost is the service time of appending an object of valueLen
// bytes under the log head, before contention.
func (s *Server) appendCost(valueLen uint32) sim.Duration {
	return s.cfg.Costs.WriteBase + sim.Scale(s.cfg.Costs.PerKByte, float64(valueLen)/1024)
}

// logCost is what cost takes under the log head once it is held: the
// contention tax of Finding 2, WriteContention per waiter squared (the
// waiters counted before the wait), is added, and the sum is inflated by
// any recovery replay running on this node.
func (s *Server) logCost(cost sim.Duration, waiters int) sim.Duration {
	cost += sim.Duration(int64(s.cfg.Costs.WriteContention) * int64(waiters*waiters))
	return sim.Scale(cost, s.interference())
}

// startMultiRead is the prefix of a read batch. The dispatch cost was
// paid once for the whole RPC (that is the point of batching); the worker
// burns the per-item read cost as one contiguous busy span, which it
// returns, and finishMultiRead then answers every item. Items this master
// does not own come back StatusWrongServer individually so a tablet move
// mid-batch costs the client one regroup, not the batch.
func (w *worker) startMultiRead(m *wire.MultiReadReq) sim.Duration {
	s := w.s
	items := make([]wire.MultiReadResult, len(m.Items))
	hashes := make([]uint64, len(m.Items))
	var cost sim.Duration
	for i := range m.Items {
		it := &m.Items[i]
		hashes[i] = hashtable.HashKey(it.Table, it.Key)
		if items[i].Status = s.admit(it.Table, hashes[i]); items[i].Status == wire.StatusOK {
			cost += s.cfg.Costs.Read
		}
	}
	w.items, w.hashes = items, hashes
	return sim.Scale(cost, s.interference())
}

// finishMultiRead is the tail of a read batch: the lookups and the answer.
func (w *worker) finishMultiRead(req rpc.Request, m *wire.MultiReadReq) {
	s := w.s
	items, hashes := w.items, w.hashes
	w.items, w.hashes = nil, nil
	for i := range m.Items {
		if items[i].Status == wire.StatusOK {
			items[i] = s.read(m.Items[i].Table, m.Items[i].Key, hashes[i])
		}
	}
	s.ep.Reply(req, &wire.MultiReadResp{Status: wire.StatusOK, Items: items})
}

// replication builds the replication request for the configured mode and
// returns the master CPU burned to issue it to one backup: a full RPC
// send, or a cheap one-sided RDMA post (Sec. IX.B).
func (s *Server) replication(segment uint64, objs []wire.Object) (wire.Message, sim.Duration) {
	if s.cfg.RDMAReplication {
		return &wire.RDMAWriteReq{Master: s.id, Segment: segment, Objects: objs}, s.cfg.Costs.RDMAPost
	}
	return &wire.ReplicateReq{Master: s.id, Segment: segment, Objects: objs}, s.cfg.Costs.SendOverhead
}

// handleBackupFailure replaces a backup that missed a deadline on segment:
// an open segment's substitute is opened and sent everything appended so
// far, restoring the replication factor.
func (s *Server) handleBackupFailure(p *sim.Proc, failed int32, segment uint64) {
	s.stats.BackupFailures.Inc()
	seg, ok := s.st.Log.Segment(segment)
	sub, ok := s.reps.Fail(segment, failed, ok && !seg.Sealed())
	if !ok {
		return
	}
	_, ok = s.ep.CallTimeout(p, simnet.NodeID(sub), &wire.OpenSegmentReq{Master: s.id, Segment: segment}, s.cfg.ReplicationTimeout)
	if ok {
		objs := make([]wire.Object, 0, seg.Entries())
		for i := 0; i < seg.Entries(); i++ {
			if e, err := seg.EntryAt(i); err == nil {
				objs = append(objs, store.ObjectOf(e))
			}
		}
		_, ok = s.ep.CallTimeout(p, simnet.NodeID(sub), &wire.ReplicateReq{Master: s.id, Segment: segment, Objects: objs}, s.cfg.ReplicationTimeout)
	}
	s.reps.Join(segment, sub, ok)
}

// Load appends a record to the master's log and index in zero simulated
// time, as a YCSB load phase would leave them, and returns the id of the
// segment it landed in. keyHash is hashtable.HashKey(table, key); the log
// copies key. Load touches no backup: PlaceReplicas copies each segment
// the load wrote to once the load is done.
func (s *Server) Load(table uint64, key []byte, keyHash uint64, valueLen uint32) (uint64, error) {
	if s.dead {
		return 0, fmt.Errorf("server %d is dead", s.id)
	}
	o := wire.Object{Table: table, KeyHash: keyHash, Key: key, ValueLen: valueLen}
	seg, status := s.st.Apply(&o, nil)
	if status != wire.StatusOK {
		return 0, fmt.Errorf("server %d: load: %v", s.id, status)
	}
	return seg, nil
}

// PlaceReplicas copies a segment Load wrote to onto its backups in zero
// simulated time, each replica filled once from the segment's bytes. A
// segment Load opened gets its backups chosen and opened first, drawing
// the engine's randomness as a roll does, so a load places its segments
// in the order of the records that opened them, across masters: the
// order loading record by record would have drawn in. A sealed segment's
// replicas are closed and marked on disk: the load phase's flushes are
// assumed complete before the experiment starts.
func (s *Server) PlaceReplicas(segment uint64) {
	rf := s.cfg.ReplicationFactor
	seg, ok := s.st.Log.Segment(segment)
	if rf <= 0 || !ok {
		return
	}
	backups, opened := s.reps.Open(segment, rf, s.eng.Rand())
	for _, b := range backups {
		backup := s.registry(simnet.NodeID(b))
		if opened {
			backup.backups.Open(&wire.OpenSegmentReq{Master: s.id, Segment: segment})
		}
		if added, ok := backup.backups.Fill(s.id, seg); ok {
			backup.stats.ReplicaAppends.Add(int64(added))
		}
		if !seg.Sealed() {
			continue
		}
		if _, r := backup.backups.Close(&wire.CloseSegmentReq{Master: s.id, Segment: segment}); r != nil {
			r.Flushed()
		}
	}
}
