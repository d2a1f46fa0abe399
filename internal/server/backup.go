package server

import (
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// This file implements what the backup role costs around store.Backups,
// which decides what each request does: appends charged to the backup
// service thread, sealed replicas spilled to disk by a flush proc, and the
// recovery path's disk read. Backup requests run on the same node as
// client requests — the collocation whose contention the paper measures.

// Registry resolves a fabric address to its server object, used only by
// PlaceReplicas to fill a bulk-loaded segment's replicas on its backups
// directly.
type Registry func(simnet.NodeID) *Server

// SetRegistry installs the cluster's server lookup for bulk loading.
func (s *Server) SetRegistry(r Registry) { s.registry = r }

// startReplicate is the prefix of a replica append: the append itself,
// whose copy the returned service time pays for. An append to a replica
// that is not open costs nothing and is answered at once.
func (w *worker) startReplicate(req rpc.Request, m *wire.ReplicateReq) (sim.Duration, bool) {
	s := w.s
	resp, bytes := s.backups.Replicate(m)
	if bytes == 0 {
		s.ep.Reply(req, resp)
		return 0, false
	}
	w.replicated = resp
	cost := sim.Duration(int64(s.cfg.Costs.ReplicaAppend)*int64(len(m.Objects))) +
		sim.Scale(s.cfg.Costs.PerKByte, float64(bytes)/1024)
	return sim.Scale(cost, s.interference()), true
}

// finishReplicate is the tail of a replica append: the count and the ack.
func (w *worker) finishReplicate(req rpc.Request, m *wire.ReplicateReq) {
	s := w.s
	s.stats.ReplicaAppends.Add(int64(len(m.Objects)))
	resp := w.replicated
	w.replicated = nil
	s.ep.Reply(req, resp)
}

func (s *Server) serveCloseSegment(req rpc.Request, m *wire.CloseSegmentReq) {
	resp, r := s.backups.Close(m)
	if r != nil {
		s.flushQ.Push(r)
	}
	s.ep.Reply(req, resp)
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
		s.disk.Write(p, int64(r.Bytes()))
		if s.dead {
			return
		}
		r.Flushed()
		s.stats.SegmentsFlush.Inc()
	}
}

// serveGetRecoveryData pays the replica's one disk read per recovery, then
// the filtering, and answers the partition's objects.
func (s *Server) serveGetRecoveryData(p *sim.Proc, req rpc.Request, m *wire.GetRecoveryDataReq) {
	resp, filtered, firstRead := s.backups.RecoveryData(m)
	if firstRead {
		s.disk.Read(p, int64(resp.SegmentBytes))
		if s.dead {
			return
		}
	}
	s.busy(p, sim.Scale(s.cfg.Costs.PerKByte, float64(filtered)/1024))
	s.ep.Reply(req, resp)
}

// ReplicaCount reports how many replicas (open + sealed) this backup holds
// for the given master. Used by tests and verification tooling.
func (s *Server) ReplicaCount(master int32) int {
	return len(s.backups.Inventory(&wire.SegmentInventoryReq{Master: master}).Segments)
}
