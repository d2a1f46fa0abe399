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
// for acknowledgement and so on". The replay is a replayer, a writeOp
// (write.go) on the replay proc, which a take (migrate.go) shares.

const recoveryFetchTimeout = 20 * sim.Second

func (s *Server) serveRecover(p *sim.Proc, req rpc.Request, m *wire.RecoverReq) {
	s.ep.Reply(req, &wire.RecoverResp{Status: wire.StatusOK})
	s.eng.Go(fmt.Sprintf("srv%d-replay-%x", s.id, m.FirstHash), func(rp *sim.Proc) {
		s.replayPartition(rp, m)
	})
}

// replayPartition fetches the partition's segments one by one on the
// replay proc p and replays each one's objects through a replayer, whose
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

	r := s.newReplayer(p, 1)
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
		if !r.replay(data.Objects) {
			return // the server died
		}
	}
	s.ep.CallTimeout(p, s.coordinator, &wire.RecoveryDoneReq{
		Crashed:   m.Crashed,
		FirstHash: m.FirstHash,
		Ok:        ok,
	}, 5*sim.Second)
}

// replayer replays objects on a proc through its writeOp, one at a time,
// each re-inserted through the write path's append. The objects that
// landed in one segment are re-replicated through the serial chain as one
// run, sent once it holds max objects, when an object lands in another
// segment, and at the end. A recovery master sends each object alone
// (max 1); a take ships runs of up to migrateBatch.
type replayer struct {
	writeOp
	objs    []wire.Object
	next    int  // the next object to replay
	max     int  // the objects a run is sent at
	landing bool // the op in hand replays objs[next-1]
	check   bool // an object was replayed: the server's death is read once its runs are sent
	died    bool // the server died after an object was replayed

	pending    []wire.Object // the run not yet sent
	pendingSeg uint64
}

// newReplayer returns a replayer on proc p that sends runs of max objects.
func (s *Server) newReplayer(p *sim.Proc, max int) *replayer {
	r := &replayer{max: max}
	r.s, r.proc, r.stepFn = s, p, r.step
	return r
}

// replay replays objs on the proc and returns once every object is
// replayed and every run sent, or false when the server died. The proc
// suspends behind the callbacks and runs only what blocks.
func (r *replayer) replay(objs []wire.Object) bool {
	r.objs, r.next, r.onProc = objs, 0, true
	for o := r.run(); o != answered; o = r.run() {
		r.onProc = false
		r.proc.Suspend()
		r.onProc = true
		if !r.blocked {
			break // resumed once the objects are done
		}
	}
	r.objs = nil
	return !r.died
}

// step is the replay's callback: it resumes the proc when the replay
// blocks or is done.
func (r *replayer) step() {
	if r.run() != waiting {
		r.s.eng.Resume(r.proc)
	}
}

// run advances the op in hand and takes the replay's next steps, in the
// order a proc replaying the objects took them, until one waits, blocks,
// or the objects are done (answered).
func (r *replayer) run() outcome {
	for {
		if r.stage != writeIdle {
			if o := r.advance(); o != answered {
				return o
			}
			if r.landing {
				r.landing = false
				r.land()
				continue
			}
		}
		switch {
		case len(r.pending) >= r.max:
			r.sendChain(r.pendingSeg, r.pending)
			r.pending = nil
		case r.check:
			r.check = false
			if r.s.dead {
				r.died = true
				return answered
			}
		case r.next < len(r.objs):
			r.obj, r.replayed, r.status, r.stage = &r.objs[r.next], true, wire.StatusError, writeReplay
			r.next++
			r.landing = true
		case len(r.pending) > 0:
			r.sendChain(r.pendingSeg, r.pending)
			r.pending = nil
		default:
			return answered
		}
	}
}

// land files the object just replayed: once appended, the server's death
// is read after the runs it ends are sent, and at RF > 0 it joins the run
// of the segment it landed in. Landing in another segment sends the run
// before it first.
func (r *replayer) land() {
	if r.status != wire.StatusOK {
		return
	}
	r.check = true
	if r.s.cfg.ReplicationFactor <= 0 {
		return
	}
	seg := r.seg
	if seg != r.pendingSeg && len(r.pending) > 0 {
		r.sendChain(r.pendingSeg, r.pending)
		r.pending = nil
	}
	r.pending, r.pendingSeg = append(r.pending, r.objs[r.next-1]), seg
}

// chain is the backups a replay chain walks for segment, one at a time.
// ROADMAP 3(c): it is the live backup set, which a failure rewrites in
// place, so the backup after a failed one is skipped
// (TestReplayChainReachesEveryBackup). Walking a copy moves the recovery
// renderings, so the fix waits for their re-baseline.
func (s *Server) chain(segment uint64) []int32 { return s.reps.Set(segment) }
