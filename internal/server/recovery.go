package server

import (
	"fmt"

	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// This file implements the recovery-master role: replaying one partition
// of a crashed master's log. Segments are fetched from backups (disk read
// + network transfer) and each object is re-inserted through the normal
// write path — including re-replication to fresh backups at the configured
// replication factor. That "replayed data is re-inserted in the same
// fashion" property is why higher replication factors lengthen recovery
// (Finding 6).

const recoveryFetchTimeout = 20 * sim.Second

func (s *Server) serveRecover(p *sim.Proc, req rpc.Request, m *wire.RecoverReq) {
	s.ep.Reply(req, &wire.RecoverResp{Status: wire.StatusOK})
	s.eng.Go(fmt.Sprintf("srv%d-replay-%x", s.id, m.FirstHash), func(rp *sim.Proc) {
		s.replayPartition(rp, m)
	})
}

func (s *Server) replayPartition(p *sim.Proc, m *wire.RecoverReq) {
	s.recoveryActive++
	if s.recoveryActive == 1 && !s.dead {
		// The replay pipeline (fetch + replay threads) busy-polls for the
		// whole recovery, like RAMCloud's recovery threads: CPU jumps to
		// ~92% on the survivors (paper Fig. 9a).
		s.node.PinCores(2)
	}
	defer func() {
		s.recoveryActive--
		if s.recoveryActive == 0 && !s.dead {
			s.node.PinCores(-2)
		}
	}()

	ok := true
	for _, loc := range m.Segments {
		resp, got := s.ep.CallTimeout(p, simnet.NodeID(loc.Backup), &wire.GetRecoveryDataReq{
			Master:    m.Crashed,
			Segment:   loc.Segment,
			FirstHash: m.FirstHash,
			LastHash:  m.LastHash,
		}, recoveryFetchTimeout)
		data, _ := resp.(*wire.GetRecoveryDataResp)
		if !got || data.Status != wire.StatusOK {
			ok = false // the backup died mid-recovery or lost the replica; partition incomplete
			continue
		}
		for i := range data.Objects {
			obj := &data.Objects[i]
			seg, replayed := s.replayObject(p, obj)
			if !replayed {
				continue
			}
			s.replicateReplaySerial(p, seg, []wire.Object{*obj})
			if s.dead {
				return
			}
		}
	}
	s.ep.CallTimeout(p, s.coordinator, &wire.RecoveryDoneReq{
		Crashed:   m.Crashed,
		FirstHash: m.FirstHash,
		Ok:        ok,
	}, 5*sim.Second)
}

// replayObject re-inserts one recovered object (or tombstone) through
// the write path's append. Versions are preserved; an object older than
// what the master already holds for that key is skipped. Returns the
// segment the entry landed in.
func (s *Server) replayObject(p *sim.Proc, obj *wire.Object) (uint64, bool) {
	s.busy(p, s.cfg.Costs.ReplayObject)
	// Staleness check: replay may deliver older versions after newer ones
	// when segments interleave; never regress.
	if cur := s.st.Read(obj.Table, obj.Key, obj.KeyHash); cur.Status == wire.StatusOK && cur.Version >= obj.Version {
		return 0, false
	}
	seg, status := s.appendOne(p, obj)
	if status != wire.StatusOK {
		return 0, false
	}
	s.stats.ObjectsReplay.Inc()
	return seg, true
}

// replicateReplaySerial re-replicates replayed objects one backup at a
// time, waiting for each acknowledgement before contacting the next —
// the paper's description of recovery: "inserting in DRAM, replicating it
// to backup replicas, waiting for acknowledgement and so on". This serial
// chain is what makes recovery time grow with the replication factor
// (Finding 6).
func (s *Server) replicateReplaySerial(p *sim.Proc, segment uint64, objs []wire.Object) {
	if s.cfg.ReplicationFactor <= 0 || len(objs) == 0 {
		return
	}
	msg, post := s.replication(segment, objs)
	// ROADMAP 3(c): the chain walks the live backup set, which a failure
	// rewrites in place, so the backup after a failed one is skipped
	// (TestReplayChainReachesEveryBackup). Walking a copy moves the
	// recovery renderings, so the fix waits for their re-baseline.
	for _, b := range s.reps.Set(segment) {
		s.busy(p, post)
		resp, ok := s.ep.CallTimeout(p, simnet.NodeID(b), msg, s.cfg.ReplicationTimeout)
		if !ok || resp == nil {
			s.handleBackupFailure(p, b, segment)
		}
	}
}
