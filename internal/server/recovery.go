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
// (Finding 6). Each object is re-replicated one backup at a time, each
// acknowledgement waited for before the next backup is contacted: the
// paper's "inserting in DRAM, replicating it to backup replicas, waiting
// for acknowledgement and so on". A migrated tablet's objects take the
// same serial chain, in batches, on the worker serving the take.

const recoveryFetchTimeout = 20 * sim.Second

func (s *Server) serveRecover(p *sim.Proc, req rpc.Request, m *wire.RecoverReq) {
	s.ep.Reply(req, &wire.RecoverResp{Status: wire.StatusOK})
	s.eng.Go(fmt.Sprintf("srv%d-replay-%x", s.id, m.FirstHash), func(rp *sim.Proc) {
		s.replayPartition(rp, m)
	})
}

// replayPartition fetches the partition's segments one by one on the
// replay proc p and replays each one's objects through a writeOp, whose
// callbacks resume p only for a roll, a backup's replacement or the end of
// the segment.
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

	r := &replayer{}
	r.s, r.proc, r.stepFn = s, p, r.step
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
		if !r.segment(data.Objects) {
			return // the server died
		}
	}
	s.ep.CallTimeout(p, s.coordinator, &wire.RecoveryDoneReq{
		Crashed:   m.Crashed,
		FirstHash: m.FirstHash,
		Ok:        ok,
	}, 5*sim.Second)
}

// replayer replays one recovered segment's objects, one writeOp at a time:
// each re-inserted through the write path's append and re-replicated
// through the serial chain.
type replayer struct {
	writeOp
	objs []wire.Object
	next int  // the next object to replay
	died bool // the server died after an object was replayed
}

// segment replays objs on the replay proc and returns once they are all
// replayed, or false when the server died. The proc suspends behind the
// callbacks and runs only what blocks.
func (r *replayer) segment(objs []wire.Object) bool {
	r.objs, r.next, r.onProc = objs, 0, true
	for o := r.run(); o != answered; o = r.run() {
		r.onProc = false
		r.proc.Suspend()
		r.onProc = true
		if !r.blocked {
			break // resumed at the end of the segment
		}
	}
	r.objs = nil
	return !r.died
}

// step is the replay's callback: it resumes the proc when the replay
// blocks or the segment is done.
func (r *replayer) step() {
	if r.run() != waiting {
		r.s.eng.Resume(r.proc)
	}
}

// run advances the object in hand and takes the next ones until one
// waits, blocks, or the segment is done (answered).
func (r *replayer) run() outcome {
	for {
		if r.stage == writeIdle {
			if r.died || r.next == len(r.objs) {
				return answered
			}
			r.startReplay(&r.objs[r.next])
			r.next++
		}
		if o := r.advance(); o != answered {
			return o
		}
		r.died = r.status == wire.StatusOK && r.s.dead
	}
}

// stale reports whether the master already holds obj's key at obj's
// version or later: replay may deliver older versions after newer ones
// when segments interleave, and must never regress.
func (s *Server) stale(obj *wire.Object) bool {
	cur := s.st.Read(obj.Table, obj.Key, obj.KeyHash)
	return cur.Status == wire.StatusOK && cur.Version >= obj.Version
}

// replayObject re-inserts one migrated object (or tombstone) through the
// write path's append. Versions are preserved; an object older than what
// the master already holds for that key is skipped. Returns the segment
// the entry landed in.
func (s *Server) replayObject(p *sim.Proc, obj *wire.Object) (uint64, bool) {
	s.busy(p, s.cfg.Costs.ReplayObject)
	if s.stale(obj) {
		return 0, false
	}
	seg, status := s.appendOne(p, obj)
	if status != wire.StatusOK {
		return 0, false
	}
	s.stats.ObjectsReplay.Inc()
	return seg, true
}

// replicateReplaySerial re-replicates migrated objects one backup at a
// time, waiting for each acknowledgement before contacting the next, as
// the recovery replay's chain does (writeOp).
func (s *Server) replicateReplaySerial(p *sim.Proc, segment uint64, objs []wire.Object) {
	if s.cfg.ReplicationFactor <= 0 || len(objs) == 0 {
		return
	}
	msg, post := s.replication(segment, objs)
	for _, b := range s.chain(segment) {
		s.busy(p, post)
		resp, ok := s.ep.CallTimeout(p, simnet.NodeID(b), msg, s.cfg.ReplicationTimeout)
		if !acked(resp, ok) {
			s.handleBackupFailure(p, b, segment)
		}
	}
}

// chain is the backups a replay chain walks for segment, one at a time.
// ROADMAP 3(c): it is the live backup set, which a failure rewrites in
// place, so the backup after a failed one is skipped
// (TestReplayChainReachesEveryBackup). Walking a copy moves the recovery
// renderings, so the fix waits for their re-baseline.
func (s *Server) chain(segment uint64) []int32 { return s.reps.Set(segment) }
