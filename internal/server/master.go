package server

import (
	"fmt"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the master role: tablet ownership, the read path,
// the durable write path (log append + synchronous primary-backup
// replication), deletes via tombstones, will maintenance and bulk loading.

// AssignTablet gives the master ownership of a key-hash range. Called by
// the coordinator's configuration plane.
func (s *Server) AssignTablet(t wire.Tablet) {
	t.Master = s.id
	s.st.Tablets = append(s.st.Tablets, t)
}

// DropTablets removes ownership of every tablet of a table.
func (s *Server) DropTablets(table uint64) {
	out := s.st.Tablets[:0]
	for _, t := range s.st.Tablets {
		if t.Table != table {
			out = append(out, t)
		}
	}
	s.st.Tablets = out
}

// Tablets returns a copy of the master's owned tablets.
func (s *Server) Tablets() []wire.Tablet {
	return append([]wire.Tablet(nil), s.st.Tablets...)
}

// startRead is the prefix of a read: the ownership and freeze checks,
// which may answer it, and the prefetch of its index bucket. It returns
// the read's service time.
func (w *worker) startRead(req rpc.Request, m *wire.ReadReq) (sim.Duration, bool) {
	s := w.s
	keyHash := hashtable.HashKey(m.Table, m.Key)
	if !s.st.Owns(m.Table, keyHash) {
		s.stats.WrongServer.Inc()
		s.ep.Reply(req, &wire.ReadResp{Status: wire.StatusWrongServer})
		return 0, false
	}
	if s.frozenKey(m.Table, keyHash) {
		s.ep.Reply(req, &wire.ReadResp{Status: wire.StatusRetry})
		return 0, false
	}
	s.st.Prefetch(keyHash) // the bucket loads while the service time passes
	w.keyHash = keyHash
	return sim.Scale(s.cfg.Costs.Read, s.interference()), true
}

// finishRead is the tail of a read: the lookup and the answer.
func (w *worker) finishRead(req rpc.Request, m *wire.ReadReq) {
	s := w.s
	var e logstore.Entry
	if !s.st.Lookup(&e, m.Table, m.Key, w.keyHash) || e.Type != logstore.EntryObject {
		s.ep.Reply(req, &wire.ReadResp{Status: wire.StatusUnknownKey})
		return
	}
	s.stats.ReadsOK.Inc()
	s.ep.Reply(req, &wire.ReadResp{
		Status:   wire.StatusOK,
		Version:  e.Version,
		ValueLen: e.ValueLen,
		Value:    e.Value,
	})
}

func (s *Server) serveWrite(p *sim.Proc, req rpc.Request, m *wire.WriteReq) {
	keyHash := hashtable.HashKey(m.Table, m.Key)
	if !s.st.Owns(m.Table, keyHash) {
		s.stats.WrongServer.Inc()
		s.ep.Reply(req, &wire.WriteResp{Status: wire.StatusWrongServer})
		return
	}
	if s.frozenKey(m.Table, keyHash) {
		s.ep.Reply(req, &wire.WriteResp{Status: wire.StatusRetry})
		return
	}
	s.st.Prefetch(keyHash) // the bucket loads while the log-head lock and the service time pass
	entry := logstore.Entry{
		Type:     logstore.EntryObject,
		Table:    m.Table,
		KeyHash:  keyHash,
		Key:      m.Key,
		ValueLen: m.ValueLen,
		Value:    m.Value,
	}
	version, seg, ok := s.appendLocked(p, entry)
	if !ok {
		s.ep.Reply(req, &wire.WriteResp{Status: wire.StatusError})
		return
	}
	s.replicateObject(p, seg, wire.Object{
		Table:    m.Table,
		KeyHash:  keyHash,
		Key:      m.Key,
		ValueLen: m.ValueLen,
		Version:  version,
	})
	s.stats.WritesOK.Inc()
	s.ep.Reply(req, &wire.WriteResp{Status: wire.StatusOK, Version: version})
}

func (s *Server) serveDelete(p *sim.Proc, req rpc.Request, m *wire.DeleteReq) {
	keyHash := hashtable.HashKey(m.Table, m.Key)
	if !s.st.Owns(m.Table, keyHash) {
		s.stats.WrongServer.Inc()
		s.ep.Reply(req, &wire.DeleteResp{Status: wire.StatusWrongServer})
		return
	}
	if s.frozenKey(m.Table, keyHash) {
		s.ep.Reply(req, &wire.DeleteResp{Status: wire.StatusRetry})
		return
	}
	s.st.Prefetch(keyHash) // the bucket loads while the log-head lock and the service time pass
	version, seg, status := s.deleteLocked(p, m.Table, keyHash, m.Key)
	if status != wire.StatusOK {
		s.ep.Reply(req, &wire.DeleteResp{Status: status})
		return
	}
	s.replicateObject(p, seg, wire.Object{
		Table:     m.Table,
		KeyHash:   keyHash,
		Key:       m.Key,
		Version:   version,
		Tombstone: true,
	})
	s.ep.Reply(req, &wire.DeleteResp{Status: wire.StatusOK, Version: version})
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
		if !s.st.Owns(it.Table, hashes[i]) {
			s.stats.WrongServer.Inc()
			items[i].Status = wire.StatusWrongServer
			continue
		}
		if s.frozenKey(it.Table, hashes[i]) {
			items[i].Status = wire.StatusRetry
			continue
		}
		s.st.Prefetch(hashes[i])
		cost += s.cfg.Costs.Read
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
		if items[i].Status != 0 {
			continue
		}
		it := &m.Items[i]
		var e logstore.Entry
		if !s.st.Lookup(&e, it.Table, it.Key, hashes[i]) || e.Type != logstore.EntryObject {
			items[i].Status = wire.StatusUnknownKey
			continue
		}
		s.stats.ReadsOK.Inc()
		items[i] = wire.MultiReadResult{
			Status:   wire.StatusOK,
			Version:  e.Version,
			ValueLen: e.ValueLen,
			Value:    e.Value,
		}
	}
	s.ep.Reply(req, &wire.MultiReadResp{Status: wire.StatusOK, Items: items})
}

// serveMultiWrite services a write batch: every owned item is appended
// under a single log-head acquisition (one contention tax for the whole
// batch instead of one per op — the quadratic "nanoscheduling" cost of
// Finding 2 is paid once), and replication fans out one RPC per backup per
// touched segment carrying all of that segment's new objects.
func (s *Server) serveMultiWrite(p *sim.Proc, req rpc.Request, m *wire.MultiWriteReq) {
	items := make([]wire.MultiWriteResult, len(m.Items))
	hashes := make([]uint64, len(m.Items))
	var owned int
	var cost sim.Duration
	for i := range m.Items {
		it := &m.Items[i]
		hashes[i] = hashtable.HashKey(it.Table, it.Key)
		if !s.st.Owns(it.Table, hashes[i]) {
			s.stats.WrongServer.Inc()
			items[i].Status = wire.StatusWrongServer
			continue
		}
		if s.frozenKey(it.Table, hashes[i]) {
			items[i].Status = wire.StatusRetry
			continue
		}
		s.st.Prefetch(hashes[i])
		owned++
		cost += s.cfg.Costs.WriteBase + sim.Scale(s.cfg.Costs.PerKByte, float64(it.ValueLen)/1024)
	}
	if owned == 0 {
		s.busy(p, sim.Scale(s.cfg.Costs.Read, s.interference()))
		s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
		return
	}
	waiters := s.logMu.Waiters()
	s.lockWithSpin(p, s.logMu)
	cost += sim.Duration(int64(s.cfg.Costs.WriteContention) * int64(waiters*waiters))
	s.busy(p, sim.Scale(cost, s.interference()))
	if s.dead {
		s.logMu.Unlock()
		for i := range items {
			if items[i].Status == 0 {
				items[i].Status = wire.StatusError
			}
		}
		// Like the single-op path: answer StatusError (the downed NIC drops
		// the reply anyway, but the two paths stay symmetric).
		s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusError, Items: items})
		return
	}
	// Append every owned item, gathering replication objects per segment in
	// append order.
	var segOrder []uint64
	segObjs := make(map[uint64][]wire.Object)
	for i := range m.Items {
		if items[i].Status != 0 {
			continue
		}
		it := &m.Items[i]
		entry := logstore.Entry{
			Type:     logstore.EntryObject,
			Table:    it.Table,
			KeyHash:  hashes[i],
			Key:      it.Key,
			ValueLen: it.ValueLen,
			Value:    it.Value,
			Version:  s.st.NextVersion(),
		}
		if s.st.Log.NeedsRoll(entry.StorageSize()) {
			s.rollLocked(p)
		}
		ref, err := s.st.Put(entry)
		if err != nil {
			items[i].Status = wire.StatusError
			continue
		}
		items[i] = wire.MultiWriteResult{Status: wire.StatusOK, Version: entry.Version}
		s.stats.WritesOK.Inc()
		if s.cfg.ReplicationFactor > 0 {
			if _, ok := segObjs[ref.Segment]; !ok {
				segOrder = append(segOrder, ref.Segment)
			}
			segObjs[ref.Segment] = append(segObjs[ref.Segment], wire.Object{
				Table:    it.Table,
				KeyHash:  hashes[i],
				Key:      it.Key,
				ValueLen: it.ValueLen,
				Version:  entry.Version,
			})
		}
	}
	s.logMu.Unlock()
	for _, seg := range segOrder {
		s.replicateBatch(p, seg, segObjs[seg])
	}
	s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
}

// appendLocked runs the serialized section of the write path: contention-
// inflated service cost, segment roll (with replica open/close) and the
// store's Put. It returns the entry's version and the segment it landed
// in. An entry that arrives with a version keeps it (replay); one without
// draws a fresh one.
func (s *Server) appendLocked(p *sim.Proc, entry logstore.Entry) (uint64, uint64, bool) {
	waiters := s.logMu.Waiters()
	s.lockWithSpin(p, s.logMu)
	cost := s.cfg.Costs.WriteBase +
		sim.Duration(int64(s.cfg.Costs.WriteContention)*int64(waiters*waiters)) +
		sim.Scale(s.cfg.Costs.PerKByte, float64(entry.ValueLen)/1024)
	s.busy(p, sim.Scale(cost, s.interference()))
	if s.dead {
		s.logMu.Unlock()
		return 0, 0, false
	}

	if entry.Version == 0 {
		entry.Version = s.st.NextVersion()
	}
	if s.st.Log.NeedsRoll(entry.StorageSize()) {
		s.rollLocked(p)
	}
	ref, err := s.st.Put(entry)
	s.logMu.Unlock()
	if err != nil {
		return 0, 0, false
	}
	return entry.Version, ref.Segment, true
}

// deleteLocked appends a tombstone for an existing key.
func (s *Server) deleteLocked(p *sim.Proc, table, keyHash uint64, key []byte) (uint64, uint64, wire.Status) {
	waiters := s.logMu.Waiters()
	s.lockWithSpin(p, s.logMu)
	cost := s.cfg.Costs.WriteBase +
		sim.Duration(int64(s.cfg.Costs.WriteContention)*int64(waiters*waiters))
	s.busy(p, sim.Scale(cost, s.interference()))
	if s.dead {
		s.logMu.Unlock()
		return 0, 0, wire.StatusError
	}
	tomb, ok := s.st.Tombstone(table, key, keyHash)
	if !ok {
		s.logMu.Unlock()
		return 0, 0, wire.StatusUnknownKey
	}
	if s.st.Log.NeedsRoll(tomb.StorageSize()) {
		s.rollLocked(p)
	}
	ref, err := s.st.Put(tomb)
	s.logMu.Unlock()
	if err != nil {
		return 0, 0, wire.StatusError
	}
	return tomb.Version, ref.Segment, wire.StatusOK
}

// rollLocked seals the head segment and opens a new one, closing the old
// replicas (async) and opening fresh ones (synchronously, so the new head
// is durable before use). Caller holds logMu.
func (s *Server) rollLocked(p *sim.Proc) {
	sealed, head := s.st.Log.Roll()
	rf := s.cfg.ReplicationFactor
	if rf <= 0 {
		return
	}
	if sealed != nil {
		closeReq := &wire.CloseSegmentReq{Master: s.id, Segment: sealed.ID(), SegmentBytes: uint32(sealed.Accounted())}
		for _, b := range s.replicas[sealed.ID()] {
			s.ep.AsyncCall(b, closeReq)
		}
		s.stats.SegmentsSealed.Inc()
	}
	backups := s.chooseBackups(rf)
	s.replicas[head.ID()] = backups
	var buf [inlineAcks]pendingAck
	acks := s.fanOut(p, buf[:0], backups, &wire.OpenSegmentReq{Master: s.id, Segment: head.ID()}, s.cfg.Costs.SendOverhead)
	s.awaitAcks(p, acks, head.ID())
	// Update the will: the partition layout depends on data volume.
	s.sendWill()
}

// chooseBackups picks rf distinct random backups, never self. RAMCloud
// scatters each segment independently so recovery parallelizes across the
// whole cluster. If fewer candidates exist than rf, all are used. With
// FixedBackups the scatter is replaced by ring order (ablation mode).
func (s *Server) chooseBackups(rf int) []simnet.NodeID {
	cands := s.aliveBackupCandidates()
	if s.cfg.FixedBackups {
		// Rotate so the ring starts just after this server.
		for i, c := range cands {
			if c > s.ep.Node() {
				cands = append(cands[i:], cands[:i]...)
				break
			}
		}
	} else {
		rng := s.eng.Rand()
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	}
	if len(cands) > rf {
		cands = cands[:rf]
	}
	return cands
}

// replicateObject forwards one appended object to the backups of its
// segment and waits for every ack — the synchronous path that provides
// strong consistency and costs Finding 3's throughput.
func (s *Server) replicateObject(p *sim.Proc, segment uint64, obj wire.Object) {
	if s.cfg.ReplicationFactor > 0 {
		s.replicateBatch(p, segment, []wire.Object{obj})
	}
}

// replicateBatch sends objs to the backups of their segment, one request
// for the whole fan-out, and waits for every ack.
func (s *Server) replicateBatch(p *sim.Proc, segment uint64, objs []wire.Object) {
	if s.cfg.ReplicationFactor <= 0 || len(objs) == 0 {
		return
	}
	var buf [inlineAcks]pendingAck
	acks := s.fanOut(p, buf[:0], s.replicas[segment], s.replicationMsg(segment, objs), s.replicationPostCost())
	if s.cfg.AsyncReplication {
		return // relaxed consistency: do not wait for backup acks
	}
	s.awaitAcks(p, acks, segment)
}

// pendingAck is one backup's outstanding acknowledgement in a fan-out.
type pendingAck struct {
	backup simnet.NodeID
	call   rpc.Call
}

// inlineAcks is how many pending acks a fan-out keeps on its stack; a
// larger replica set spills to the heap.
const inlineAcks = 8

// fanOut sends msg to every backup, paying post before each send, and
// appends the pending acks to acks. Every backup gets the same message: a
// sent message is immutable.
func (s *Server) fanOut(p *sim.Proc, acks []pendingAck, backups []simnet.NodeID, msg wire.Message, post sim.Duration) []pendingAck {
	for _, b := range backups {
		s.busy(p, post)
		acks = append(acks, pendingAck{backup: b, call: s.ep.StartCall(b, msg)})
	}
	return acks
}

// awaitAcks waits for every ack and replaces each backup that missed its
// deadline. It names a backup by the id captured at its send, not by its
// index in the segment's backup set: handleBackupFailure rewrites that set
// in place, so an index may already name the substitute. Each call is
// released after its wait; one that timed out was deregistered by
// WaitTimeout, so its ack, should it still come, is dropped.
func (s *Server) awaitAcks(p *sim.Proc, acks []pendingAck, segment uint64) {
	for i := range acks {
		a := &acks[i]
		_, ok := a.call.WaitTimeout(p, s.cfg.ReplicationTimeout)
		a.call.Release()
		if !ok {
			s.handleBackupFailure(p, a.backup, segment)
		}
	}
}

// replicationPostCost is the master CPU burned to issue one replication
// request: a full RPC send, or a cheap one-sided RDMA post (Sec. IX.B).
func (s *Server) replicationPostCost() sim.Duration {
	if s.cfg.RDMAReplication {
		return s.cfg.Costs.RDMAPost
	}
	return s.cfg.Costs.SendOverhead
}

// replicationMsg builds the replication request for the configured mode.
func (s *Server) replicationMsg(segment uint64, objs []wire.Object) wire.Message {
	if s.cfg.RDMAReplication {
		return &wire.RDMAWriteReq{Master: s.id, Segment: segment, Objects: objs}
	}
	return &wire.ReplicateReq{Master: s.id, Segment: segment, Objects: objs}
}

// handleBackupFailure replaces a dead backup for the currently open
// segment: pick a substitute, open a replica there and resend the open
// segment's content so the replication factor is restored.
func (s *Server) handleBackupFailure(p *sim.Proc, failed simnet.NodeID, segment uint64) {
	s.deadPeers[failed] = true
	s.stats.BackupFailures.Inc()
	seg, ok := s.st.Log.Segment(segment)
	if !ok || seg.Sealed() {
		// Sealed segments keep their surviving replicas; full backup
		// recovery (re-replicating sealed segments) is out of scope.
		s.removeReplica(segment, failed)
		return
	}
	cands := s.aliveBackupCandidates()
	var sub simnet.NodeID = -1
	current := s.replicas[segment]
	for _, c := range cands {
		inUse := false
		for _, cur := range current {
			if cur == c {
				inUse = true
				break
			}
		}
		if !inUse {
			sub = c
			break
		}
	}
	s.removeReplica(segment, failed)
	if sub < 0 {
		return // no substitute available; degraded durability
	}
	if _, ok := s.ep.CallTimeout(p, sub, &wire.OpenSegmentReq{Master: s.id, Segment: segment}, s.cfg.ReplicationTimeout); !ok {
		return
	}
	// Resend everything appended to the open segment so far.
	objs := make([]wire.Object, 0, seg.Entries())
	for i := 0; i < seg.Entries(); i++ {
		e, err := seg.EntryAt(i)
		if err != nil {
			continue
		}
		objs = append(objs, store.ObjectOf(e))
	}
	if _, ok := s.ep.CallTimeout(p, sub, &wire.ReplicateReq{Master: s.id, Segment: segment, Objects: objs}, s.cfg.ReplicationTimeout); !ok {
		return
	}
	s.replicas[segment] = append(s.replicas[segment], sub)
}

func (s *Server) removeReplica(segment uint64, backup simnet.NodeID) {
	cur := s.replicas[segment]
	out := cur[:0]
	for _, b := range cur {
		if b != backup {
			out = append(out, b)
		}
	}
	s.replicas[segment] = out
}

// sendWill pushes an updated recovery will to the coordinator: the owned
// hash space split into partitions of roughly PartitionBytes of live data.
func (s *Server) sendWill() {
	parts := s.computeWill()
	s.ep.AsyncCall(s.coordinator, &wire.SetWillReq{Master: s.id, Partitions: parts})
}

// computeWill splits the master's owned ranges into partitions sized so
// each holds about PartitionBytes of live data — but never fewer than the
// number of peer servers: RAMCloud scatters recovery "to have as many
// machines performing the crash-recovery as possible" (paper Sec. II-B).
func (s *Server) computeWill() []wire.WillPartition {
	nParts := int(s.st.Log.LiveBytes()/s.cfg.PartitionBytes) + 1
	if peers := len(s.peers) - 1; nParts < peers {
		nParts = peers
	}
	if nParts > 64 {
		nParts = 64
	}
	return store.SplitRanges(s.st.Tablets, nParts)
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
	entry := logstore.Entry{
		Type:     logstore.EntryObject,
		Table:    table,
		KeyHash:  keyHash,
		Key:      key,
		ValueLen: valueLen,
		Version:  s.st.NextVersion(),
	}
	if s.st.Log.NeedsRoll(entry.StorageSize()) {
		s.st.Log.Roll()
	}
	ref, err := s.st.Put(entry)
	return ref.Segment, err
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
	backups, placed := s.replicas[segment]
	if !placed {
		backups = s.chooseBackups(rf)
		s.replicas[segment] = backups
		for _, b := range backups {
			s.registry(b).backups.Open(&wire.OpenSegmentReq{Master: s.id, Segment: segment})
		}
	}
	for _, b := range backups {
		backup := s.registry(b)
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
