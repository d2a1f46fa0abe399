package server

import (
	"sort"

	"ramcloud/internal/logstore"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// This file implements the backup role: open replicas staged in DRAM,
// sealed replicas spilled to disk by a flush proc, and the recovery read
// path. Backup requests run on the same worker pool as client requests —
// the collocation whose contention the paper measures.

// Status-only acks are shared by every backup of every cluster: a sent
// message is immutable, and the masters read nothing from these but their
// arrival. No code may write to them.
var (
	openSegmentOK     = &wire.OpenSegmentResp{Status: wire.StatusOK}
	replicateOK       = &wire.ReplicateResp{Status: wire.StatusOK}
	replicateError    = &wire.ReplicateResp{Status: wire.StatusError}
	closeSegmentOK    = &wire.CloseSegmentResp{Status: wire.StatusOK}
	closeSegmentError = &wire.CloseSegmentResp{Status: wire.StatusError}
	freeReplicasOK    = &wire.FreeReplicasResp{Status: wire.StatusOK}
	rdmaWriteOK       = &wire.RDMAWriteResp{Status: wire.StatusOK}
)

// Registry resolves a fabric address to its server object, used only by
// the zero-time bulk loader (FastLoad) to build cluster state directly.
type Registry func(simnet.NodeID) *Server

// SetRegistry installs the cluster's server lookup for bulk loading.
func (s *Server) SetRegistry(r Registry) { s.registry = r }

func (s *Server) serveOpenSegment(p *sim.Proc, req rpc.Request, m *wire.OpenSegmentReq) {
	s.busy(p, sim.Scale(s.cfg.Costs.SegmentOpen, s.interference()))
	key := replicaKey{master: m.Master, segment: m.Segment}
	if _, exists := s.openReplicas[key]; !exists {
		s.openReplicas[key] = s.newReplica(key)
		s.stats.SegmentsOpened.Inc()
	}
	s.ep.Reply(req, openSegmentOK)
}

func (s *Server) serveReplicate(p *sim.Proc, req rpc.Request, m *wire.ReplicateReq) {
	key := replicaKey{master: m.Master, segment: m.Segment}
	r, ok := s.openReplicas[key]
	if !ok {
		s.ep.Reply(req, replicateError)
		return
	}
	var bytes int
	for i := range m.Objects {
		e := objectEntry(&m.Objects[i])
		bytes += e.StorageSize()
	}
	cost := sim.Duration(int64(s.cfg.Costs.ReplicaAppend)*int64(len(m.Objects))) +
		sim.Scale(s.cfg.Costs.PerKByte, float64(bytes)/1024)
	s.busy(p, sim.Scale(cost, s.interference()))
	r.add(m.Objects)
	s.stats.ReplicaAppends.Add(int64(len(m.Objects)))
	s.ep.Reply(req, replicateOK)
}

// add copies objs into the replica.
func (r *replica) add(objs []wire.Object) {
	for i := range objs {
		r.data.Append(objectEntry(&objs[i]))
	}
}

func (s *Server) serveCloseSegment(p *sim.Proc, req rpc.Request, m *wire.CloseSegmentReq) {
	key := replicaKey{master: m.Master, segment: m.Segment}
	r, ok := s.openReplicas[key]
	if !ok {
		s.ep.Reply(req, closeSegmentError)
		return
	}
	delete(s.openReplicas, key)
	r.sealed = true
	s.sealReplicaLocked(r)
	s.flushQ.Push(r)
	s.ep.Reply(req, closeSegmentOK)
}

func (s *Server) sealReplicaLocked(r *replica) {
	byMaster, ok := s.sealedReplicas[r.key.master]
	if !ok {
		byMaster = make(map[uint64]*replica)
		s.sealedReplicas[r.key.master] = byMaster
	}
	byMaster[r.key.segment] = r
}

// flushLoop spills sealed replicas to disk. The disk write contends with
// recovery reads (Finding 6's disk interference).
func (s *Server) flushLoop(p *sim.Proc) {
	for {
		r := s.flushQ.Pop(p)
		if s.dead {
			return
		}
		if r == nil {
			continue
		}
		s.disk.Write(p, int64(r.data.Bytes()))
		if s.dead {
			return
		}
		r.onDisk = true
		s.stats.SegmentsFlush.Inc()
	}
}

func (s *Server) serveFreeReplicas(p *sim.Proc, req rpc.Request, m *wire.FreeReplicasReq) {
	s.busy(p, s.cfg.Costs.SegmentOpen)
	delete(s.sealedReplicas, m.Master)
	for key := range s.openReplicas {
		if key.master == m.Master {
			delete(s.openReplicas, key)
		}
	}
	for key := range s.recoveryReads {
		if key.master == m.Master {
			delete(s.recoveryReads, key)
		}
	}
	s.ep.Reply(req, freeReplicasOK)
}

func (s *Server) serveInventory(p *sim.Proc, req rpc.Request, m *wire.SegmentInventoryReq) {
	s.busy(p, s.cfg.Costs.SegmentOpen)
	var infos []wire.SegmentInfo
	for segID, r := range s.sealedReplicas[m.Master] {
		infos = append(infos, wire.SegmentInfo{Segment: segID, Bytes: uint32(r.data.Bytes())})
	}
	for key, r := range s.openReplicas {
		if key.master == m.Master {
			infos = append(infos, wire.SegmentInfo{Segment: key.segment, Bytes: uint32(r.data.Bytes())})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Segment < infos[j].Segment })
	s.ep.Reply(req, &wire.SegmentInventoryResp{Status: wire.StatusOK, Segments: infos})
}

// serveGetRecoveryData returns a crashed master's segment content filtered
// to a key-hash partition, in append order. The replica is read from disk
// once per recovery and then served from memory for the other partitions'
// requests, like RAMCloud backups that read each segment once and split
// it. The objects are views of the replica's bytes; they keep their block
// alive after FreeReplicas drops the replica.
func (s *Server) serveGetRecoveryData(p *sim.Proc, req rpc.Request, m *wire.GetRecoveryDataReq) {
	key := replicaKey{master: m.Master, segment: m.Segment}
	r := s.findReplica(key)
	if r == nil {
		s.ep.Reply(req, &wire.GetRecoveryDataResp{Status: wire.StatusError})
		return
	}
	if r.onDisk && !s.recoveryReads[key] {
		s.disk.Read(p, int64(r.data.Bytes()))
		if s.dead {
			return
		}
		s.recoveryReads[key] = true
	}
	var objs []wire.Object
	var filtered int
	for i := 0; i < r.data.Len(); i++ {
		e := r.data.At(i)
		if e.KeyHash >= m.FirstHash && e.KeyHash <= m.LastHash {
			objs = append(objs, entryToObject(e))
			filtered += e.StorageSize()
		}
	}
	s.busy(p, sim.Scale(s.cfg.Costs.PerKByte, float64(filtered)/1024))
	s.ep.Reply(req, &wire.GetRecoveryDataResp{
		Status:       wire.StatusOK,
		SegmentBytes: uint32(r.data.Bytes()),
		Objects:      objs,
	})
}

func (s *Server) findReplica(key replicaKey) *replica {
	if r, ok := s.openReplicas[key]; ok {
		return r
	}
	if byMaster, ok := s.sealedReplicas[key.master]; ok {
		if r, ok := byMaster[key.segment]; ok {
			return r
		}
	}
	return nil
}

// ReplicaCount reports how many replicas (open + sealed) this backup holds
// for the given master. Used by tests and verification tooling.
func (s *Server) ReplicaCount(master int32) int {
	n := len(s.sealedReplicas[master])
	for key := range s.openReplicas {
		if key.master == master {
			n++
		}
	}
	return n
}

// Fast (zero-time) replica construction for bulk loading -------------------

func (s *Server) fastOpenReplica(backup simnet.NodeID, segment uint64) {
	b := s.registry(backup)
	key := replicaKey{master: s.id, segment: segment}
	b.openReplicas[key] = b.newReplica(key)
	b.stats.SegmentsOpened.Inc()
}

func (s *Server) fastAppendReplica(backup simnet.NodeID, segment uint64, e logstore.Entry) {
	b := s.registry(backup)
	key := replicaKey{master: s.id, segment: segment}
	r, ok := b.openReplicas[key]
	if !ok {
		return
	}
	r.data.Append(e)
	b.stats.ReplicaAppends.Inc()
}

// fastSealReplicas seals the replicas of a just-rolled segment on their
// backups and marks them on disk (the load phase's flushes are assumed
// complete before the experiment starts).
func (s *Server) fastSealReplicas(sealed interface{ ID() uint64 }) {
	segID := sealed.ID()
	for _, backup := range s.replicas[segID] {
		b := s.registry(backup)
		key := replicaKey{master: s.id, segment: segID}
		if r, ok := b.openReplicas[key]; ok {
			delete(b.openReplicas, key)
			r.sealed = true
			r.onDisk = true
			b.sealReplicaLocked(r)
		}
	}
}

// applyRDMAWrite deposits one-sided RDMA replication data directly into
// the target replica buffer. It runs at NIC level: no dispatch cost, no
// worker, no CPU accounting beyond the transfer time already paid on the
// fabric — the zero-CPU replication path the paper's Discussion proposes.
func (s *Server) applyRDMAWrite(m *wire.RDMAWriteReq) {
	key := replicaKey{master: m.Master, segment: m.Segment}
	r, ok := s.openReplicas[key]
	if !ok {
		// The buffer must be registered (opened) first; a miss means the
		// master raced a roll. The object is dropped at the NIC, exactly
		// like a one-sided write to an unregistered region.
		return
	}
	r.add(m.Objects)
	s.stats.ReplicaAppends.Add(int64(len(m.Objects)))
}
