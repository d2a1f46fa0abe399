package server

import (
	"fmt"
	"slices"

	"ramcloud/internal/logstore"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements tablet migration, the mechanism behind re-spreading
// load onto a restarted server: the coordinator asks the current owner to
// MigrateTablet a hash range to a destination master. The source freezes the
// range (clients get StatusRetry), walks its log for the range's live
// objects, ships them in batches (TakeTabletReq) and finally drops ownership
// so subsequent client ops re-route via the coordinator. The destination
// re-inserts each batch through the recovery replay's replayer
// (recovery.go), on the proc serving the take.

const migrateBatchTimeout = 5 * sim.Second

// migrateBatch is the number of objects shipped per TakeTabletReq, and
// the most a take re-replicates in one request. Recovery replay
// replicates one object per RPC; migration is a bulk transfer, not a
// latency-sensitive replay, so it ships many.
const migrateBatch = 64

// PeerRejoined clears the permanent dead mark for a restarted peer so it
// becomes a backup candidate again.
func (s *Server) PeerRejoined(addr simnet.NodeID) { s.reps.Rejoin(int32(addr)) }

// frozenKey reports whether (table, keyHash) is inside a range currently
// being migrated away. Frozen keys answer StatusRetry: the client backs off
// and retries, and after the migration lands it is re-routed by the
// WrongServer path.
func (s *Server) frozenKey(table, keyHash uint64) bool {
	return store.Find(s.frozen, table, keyHash) != nil
}

// serveMigrateTablet hands the transfer to a dedicated proc so the backup
// service thread is not captive for the whole migration (replication
// requests from other masters keep flowing). The reply is sent when the
// migration completes.
func (s *Server) serveMigrateTablet(req rpc.Request, m *wire.MigrateTabletReq) {
	s.eng.Go(fmt.Sprintf("srv%d-migrate-%x", s.id, m.FirstHash), func(p *sim.Proc) {
		s.migrateTablet(p, req, m)
	})
}

func (s *Server) migrateTablet(p *sim.Proc, req rpc.Request, m *wire.MigrateTabletReq) {
	if s.dead {
		return
	}
	if !s.st.Owns(m.Table, m.FirstHash) || !s.st.Owns(m.Table, m.LastHash) {
		s.ep.Reply(req, &wire.MigrateTabletResp{Status: wire.StatusWrongServer})
		return
	}
	rng := wire.Tablet{Table: m.Table, StartHash: m.FirstHash, EndHash: m.LastHash, Master: s.id}
	s.frozen = append(s.frozen, rng)
	defer s.unfreeze(rng)

	objs := s.collectRange(p, m.Table, m.FirstHash, m.LastHash)
	for off := 0; off < len(objs); off += migrateBatch {
		end := min(off+migrateBatch, len(objs))
		s.busy(p, s.cfg.Costs.SendOverhead)
		resp, ok := s.ep.CallTimeout(p, simnet.NodeID(m.Dst), &wire.TakeTabletReq{
			Table:     m.Table,
			FirstHash: m.FirstHash,
			LastHash:  m.LastHash,
			Objects:   objs[off:end],
		}, migrateBatchTimeout)
		if s.dead {
			return
		}
		if tr, good := resp.(*wire.TakeTabletResp); !ok || !good || tr.Status != wire.StatusOK {
			s.ep.Reply(req, &wire.MigrateTabletResp{Status: wire.StatusError})
			return
		}
	}
	s.dropRange(p, m.Table, m.FirstHash, m.LastHash, objs)
	s.ep.Reply(req, &wire.MigrateTabletResp{Status: wire.StatusOK, Moved: uint32(len(objs))})
}

// collectRange snapshots the live objects of [first, last] under the log
// lock, using the cleaner's liveness test (hash-table entry still points at
// this exact log position). The scan CPU is charged after the lock drops so
// writers outside the frozen range are not stalled for the whole walk.
func (s *Server) collectRange(p *sim.Proc, table, first, last uint64) []wire.Object {
	s.lockWithSpin(p, s.logMu)
	var objs []wire.Object
	head := s.st.Log.Head()
	if head == nil {
		s.logMu.Unlock()
		return nil
	}
	for id := uint64(0); id <= head.ID(); id++ {
		seg, ok := s.st.Log.Segment(id)
		if !ok {
			continue
		}
		for i := 0; i < seg.Entries(); i++ {
			e, err := seg.EntryAt(i)
			if err != nil || e.Type != logstore.EntryObject {
				continue
			}
			if e.Table != table || e.KeyHash < first || e.KeyHash > last {
				continue
			}
			if s.st.IsLive(seg.RefAt(i), e) {
				objs = append(objs, store.ObjectOf(e))
			}
		}
	}
	s.logMu.Unlock()
	s.busy(p, sim.Scale(s.cfg.Costs.Read, float64(len(objs))))
	return objs
}

// dropRange removes ownership of [first, last] (splitting any tablet the
// range cuts through) and unindexes the moved objects so their log space is
// reclaimable. The range is frozen, so no writer raced the collect.
func (s *Server) dropRange(p *sim.Proc, table, first, last uint64, moved []wire.Object) {
	s.lockWithSpin(p, s.logMu)
	var out []wire.Tablet
	for _, t := range s.st.Tablets {
		if t.Table != table || t.EndHash < first || t.StartHash > last {
			out = append(out, t)
			continue
		}
		if t.StartHash < first {
			out = append(out, wire.Tablet{Table: table, StartHash: t.StartHash, EndHash: first - 1, Master: s.id})
		}
		if t.EndHash > last {
			out = append(out, wire.Tablet{Table: table, StartHash: last + 1, EndHash: t.EndHash, Master: s.id})
		}
	}
	s.st.Tablets = out
	for i := range moved {
		o := &moved[i]
		s.st.Unindex(o.Table, o.Key, o.KeyHash)
	}
	s.logMu.Unlock()
}

func (s *Server) unfreeze(rng wire.Tablet) {
	s.frozen = slices.DeleteFunc(s.frozen, func(t wire.Tablet) bool { return t == rng })
}

// serveTakeTablet receives one batch of a migrating tablet. Objects are
// re-inserted through the replay path (versions preserved, staleness
// checked) and re-replicated to this master's own backups through the
// serial chain, in runs of up to migrateBatch. The store keeps its version
// counter at or above every version it is handed, so post-migration writes
// never regress below a migrated version. ROADMAP 3(d): a run is sent once
// the next object has landed in another segment, after the roll closed the
// run's replicas (TestTakeFillsSealedReplicas).
func (s *Server) serveTakeTablet(p *sim.Proc, req rpc.Request, m *wire.TakeTabletReq) {
	if s.dead {
		return
	}
	if s.newReplayer(p, migrateBatch).replay(m.Objects) {
		s.ep.Reply(req, &wire.TakeTabletResp{Status: wire.StatusOK})
	}
}
