package server

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the master's single-object write as engine
// callbacks: a client write or delete on a worker, and each object a
// recovery master replays. A writeOp is the explicit step machine of one
// object's way through the master: admitted (or, replayed, charged and
// checked for staleness), the log head taken, its cost paid under it,
// appended through store.Apply, the head released, replicated to the
// segment's backups and answered.
//
// A writeOp is a proc only while it blocks. Each wait is a callback
// scheduled where a proc serving the object drew its wake-up: the log
// head's hand-off (sim.Mutex.LockNotify), the end of each service time and
// each post, and each ack (rpc.Call.Notify). Two steps block for real: a
// roll at RF > 0, which opens the new head's replicas and waits for them,
// and the replacement of a backup that missed its deadline. Those run on
// the host's proc, which the callback resumes inline (sim.Engine.Resume);
// the proc then carries the op on until its next wait and suspends again.

// writeStage is the step a writeOp runs next.
type writeStage uint8

const (
	writeIdle     writeStage = iota // no object in hand
	writeReplay                     // a replayed object: pay its busy time
	writeReplayed                   // check its staleness, then take the log head
	writeLocked                     // the log head is held: pay the append's cost
	writeCharged                    // append (a roll blocks), release, replicate
	writePost                       // pay the post of the next send
	writePosted                     // send to the next backup
	writeAck                        // read, or wait for, the next ack
	writeAcked                      // judge the ack, or its missed deadline
	writeFailed                     // replace the backup that missed it (blocks)
)

// writeOp is one single-object write in hand. Its host (a worker, or a
// recovery master's replay) owns it, binds stepFn to its own callback,
// which advances the op, and runs the op on proc while it blocks.
type writeOp struct {
	s      *Server
	proc   *sim.Proc
	stepFn func()

	stage   writeStage
	onProc  bool // advancing on proc: a blocking step runs inline
	blocked bool // a blocking step waits for proc

	req    rpc.Request  // a client write's request; none for a replayed object
	o      wire.Object  // a client write's object or tombstone
	obj    *wire.Object // the object appended: &o, or the replayed one
	status wire.Status
	seg    uint64 // the segment the object landed in

	// The log head's acquisition: the waiters found and the cost to pay
	// under it, and the spin accounted from t0 while it was waited for.
	waiters int
	cost    sim.Duration
	t0      sim.Time
	spin    sim.Duration

	// Replication: the request every backup is sent and the post paid for
	// each, and the backups, the set as the walk found it. A client write
	// fans out, posting every send before it judges any ack; a replayed
	// object walks the serial chain, each ack judged before the next post.
	replay bool
	msg    wire.Message
	post   sim.Duration
	set    []int32
	acks   []pendingAck
	judged int
	failed int32
	buf    [inlineAcks]pendingAck
}

// startWrite takes a client write or delete, o being the object or the
// tombstone it asks for: admitted, it asks for the log head.
func (x *writeOp) startWrite(req rpc.Request, o wire.Object) outcome {
	s := x.s
	x.req, x.o, x.obj, x.replay = req, o, &x.o, false
	x.o.KeyHash = hashtable.HashKey(o.Table, o.Key)
	if x.status = s.admit(o.Table, x.o.KeyHash); x.status != wire.StatusOK {
		return x.done()
	}
	if x.lock() {
		return waiting
	}
	return x.advance()
}

// startReplay takes one object of a recovered segment.
func (x *writeOp) startReplay(obj *wire.Object) {
	x.obj, x.replay, x.status = obj, true, wire.StatusError
	x.stage = writeReplay
}

// lock asks for the log head as Server.lockLog does: the waiters are
// counted before the wait, and a thread that finds the head held spins.
// It reports true when the head is held and the op waits for its hand-off.
func (x *writeOp) lock() bool {
	s := x.s
	x.cost = s.appendCost(x.obj.ValueLen)
	x.waiters = s.logMu.Waiters()
	x.t0, x.spin = s.eng.Now(), s.startSpin(s.logMu)
	x.stage = writeLocked
	return !s.logMu.LockNotify(x.stepFn)
}

// pay burns d of worker CPU before stage next runs: the span is accounted
// on the node and the step scheduled at its end. It reports false when
// there is nothing to pay and next can run at once.
func (x *writeOp) pay(d sim.Duration, next writeStage) bool {
	x.stage = next
	if d <= 0 {
		return false
	}
	now := x.s.eng.Now()
	x.s.node.AddBusy(now, now.Add(d))
	x.s.eng.ScheduleAt(now.Add(d), x.stepFn)
	return true
}

// block reports whether the blocking step in stage must wait for proc: run
// from a callback it marks the op blocked, and its host resumes proc,
// which runs the step again.
func (x *writeOp) block() bool {
	x.blocked = !x.onProc
	return x.blocked
}

// advance runs the op from its stage until it waits for a callback
// (waiting), needs its proc (blocks) or is finished (answered).
func (x *writeOp) advance() outcome {
	s := x.s
	for {
		switch x.stage {
		case writeReplay:
			if x.pay(s.cfg.Costs.ReplayObject, writeReplayed) {
				return waiting
			}
		case writeReplayed:
			// Replay may deliver older versions after newer ones when
			// segments interleave; never regress.
			if s.stale(x.obj) {
				return x.done()
			}
			if x.lock() {
				return waiting
			}
		case writeLocked:
			s.endSpin(x.t0, x.spin)
			if x.pay(s.logCost(x.cost, x.waiters), writeCharged) {
				return waiting
			}
		case writeCharged:
			if s.dead {
				s.logMu.Unlock()
				x.status = wire.StatusError
				return x.done()
			}
			if x.rolls() {
				if x.block() {
					return blocks
				}
				p := x.proc
				x.seg, x.status = s.st.Apply(x.obj, func() { s.rollLocked(p) })
			} else {
				// No roll, or one at RF 0, which waits for no backup and
				// is the log's alone (rollLocked at RF 0).
				x.seg, x.status = s.st.Apply(x.obj, nil)
			}
			s.logMu.Unlock()
			if x.status != wire.StatusOK {
				return x.done()
			}
			if x.replay {
				s.stats.ObjectsReplay.Inc()
			}
			if s.cfg.ReplicationFactor <= 0 {
				return x.done()
			}
			x.msg, x.post = s.replication(x.seg, []wire.Object{*x.obj})
			x.set, x.acks, x.judged = s.reps.Set(x.seg), x.buf[:0], 0
			if x.replay {
				x.set = s.chain(x.seg)
			}
			x.stage = writePost
		case writePost:
			switch {
			case len(x.acks) < len(x.set):
				if x.pay(x.post, writePosted) {
					return waiting
				}
			case x.replay || s.cfg.AsyncReplication:
				// Every ack of the chain is judged; a relaxed fan-out
				// waits for none.
				return x.done()
			default:
				x.stage = writeAck
			}
		case writePosted:
			b := x.set[len(x.acks)]
			x.acks = append(x.acks, pendingAck{backup: b, call: s.ep.StartCall(simnet.NodeID(b), x.msg)})
			if x.replay {
				x.stage = writeAck
			} else {
				x.stage = writePost
			}
		case writeAck:
			if x.judged == len(x.acks) {
				if x.replay {
					x.stage = writePost
					continue
				}
				return x.done()
			}
			x.stage = writeAcked
			if c := &x.acks[x.judged].call; !c.Done() {
				c.Notify(s.cfg.ReplicationTimeout, x.stepFn)
				return waiting
			}
		case writeAcked:
			a := &x.acks[x.judged]
			resp, ok := a.call.Result()
			a.call.Release()
			x.judged++
			x.stage = writeAck
			if !acked(resp, ok) {
				x.failed = a.backup
				x.stage = writeFailed
			}
		case writeFailed:
			if x.block() {
				return blocks
			}
			s.handleBackupFailure(x.proc, x.failed, x.seg)
			x.stage = writeAck
		default:
			panic("server: writeOp advanced in no stage")
		}
	}
}

// rolls reports whether Apply will roll the head for the object at RF > 0,
// where the roll opens the new head's replicas and waits for them. Apply
// decides the roll; this only says ahead of it where Apply must run. A
// tombstone is sized with any value length it carries, which Apply drops,
// so an error can only send Apply to the proc for nothing.
func (x *writeOp) rolls() bool {
	if x.s.cfg.ReplicationFactor <= 0 {
		return false
	}
	e := store.EntryOf(x.obj)
	return x.s.st.Log.NeedsRoll(e.StorageSize())
}

// done finishes the op: a client write is counted and answered.
func (x *writeOp) done() outcome {
	s := x.s
	x.stage = writeIdle
	x.obj, x.msg, x.set = nil, nil, nil
	if x.replay {
		return answered
	}
	if x.status == wire.StatusOK && !x.o.Tombstone {
		s.stats.WritesOK.Inc()
	}
	if x.o.Tombstone {
		s.ep.Reply(x.req, &wire.DeleteResp{Status: x.status, Version: x.o.Version})
	} else {
		s.ep.Reply(x.req, &wire.WriteResp{Status: x.status, Version: x.o.Version})
	}
	x.req, x.o = rpc.Request{}, wire.Object{}
	return answered
}

// acked judges one backup's answer to a replication send: ok is false when
// its deadline passed first. ROADMAP 3(a): a refused append (a status
// other than StatusOK) is counted as acknowledged.
func acked(resp wire.Message, ok bool) bool { return ok && resp != nil }
