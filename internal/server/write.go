package server

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the master's one append-and-replicate path, the
// step machine writeOp: for a client write, delete or write batch, each
// object a recovery master replays or a take re-inserts, the runs they
// replicate and a roll's sends. An op is admitted (or, replayed, charged
// and checked for staleness), takes the log head once and pays the cost
// of its appends under it, appends each object through store.Apply,
// releases the head, replicates the run appended and answers.
//
// A writeOp is a proc only while it blocks. Each wait is a callback
// scheduled where a proc serving the request drew its wake-up: the log
// head's hand-off (sim.Mutex.LockNotify), the end of each service time and
// post, and each ack (rpc.Call.Notify). A roll at RF > 0 and the
// replacement of a backup that missed its deadline block for real: they
// run on the host's proc, resumed inline (sim.Engine.Resume). A roll
// drives the same send and ack stages from the proc (await), suspended
// while they wait, for a batch's run before it closes the run's segment
// and for the new head's opens.

// writeStage is the step a writeOp runs next.
type writeStage uint8

const (
	writeIdle     writeStage = iota // no object in hand
	writeReplay                     // a replayed object: pay its busy time
	writeReplayed                   // check its staleness, then take the log head
	writeLocked                     // the log head is held: pay the appends' cost
	writeCharged                    // append (a roll blocks), release, replicate
	writePost                       // pay the post of the next send
	writePosted                     // send to the next backup
	writeAck                        // read, or wait for, the next ack
	writeAcked                      // judge the ack, or its missed deadline
	writeFailed                     // replace the backup that missed it (blocks)
	writeDone                       // answer, or go back to the roll that sent
)

// writeOp is one append-and-replicate in hand. Its host (a worker, or a
// replayer) owns it, binds stepFn to its own callback, which advances the
// op, and runs the op on proc while it blocks.
type writeOp struct {
	s      *Server
	proc   *sim.Proc
	stepFn func()

	stage   writeStage
	onProc  bool // advancing on proc: a blocking step runs inline
	blocked bool // a blocking step waits for proc
	rolling bool // the sends in hand are a roll's, awaited on proc

	// What is appended: a client write's object or tombstone (o), a write
	// batch's owned items (batch, with the answers and key hashes that
	// admission made), or a replayed object (obj alone, no request).
	req      rpc.Request
	batch    *wire.MultiWriteReq
	items    []wire.MultiWriteResult
	hashes   []uint64
	owned    int          // the objects admitted
	next     int          // the next batch item to append
	o        wire.Object  // a client write's object, or the batch item in hand
	obj      *wire.Object // the object appended: &o, or the replayed one
	replayed bool         // obj is replayed: counted as such, and replicated by its host
	status   wire.Status

	// The log head's acquisition: the waiters found and the cost to pay
	// under it, and the spin accounted from t0 while it was waited for.
	waiters int
	cost    sim.Duration
	t0      sim.Time
	spin    sim.Duration

	// The client objects appended, objs[start:] the run not yet
	// replicated, and seg the segment the last object landed in, and then
	// the one the sends in hand replicate or open.
	objs  []wire.Object
	start int
	seg   uint64

	// The sends: the request every backup is sent and the post paid for
	// each, and the backups, the set as the walk found it. A fan-out posts
	// every send before it judges any ack (none when async); a chain
	// judges each ack before the next post.
	chain  bool
	async  bool
	msg    wire.Message
	post   sim.Duration
	set    []int32
	acks   []pendingAck
	judged int
	failed int32
	buf    [inlineAcks]pendingAck
}

// pendingAck is one backup's outstanding acknowledgement.
type pendingAck struct {
	backup int32
	call   rpc.Call
}

// inlineAcks is how many pending acks a writeOp keeps in itself; a larger
// replica set spills to the heap.
const inlineAcks = 8

// startWrite takes a client write or delete, o being the object or the
// tombstone it asks for: admitted, it asks for the log head.
func (x *writeOp) startWrite(req rpc.Request, o wire.Object) outcome {
	s := x.s
	x.req, x.o, x.obj, x.replayed, x.owned = req, o, &x.o, false, 1
	x.o.KeyHash = hashtable.HashKey(o.Table, o.Key)
	if x.status = s.admit(o.Table, x.o.KeyHash); x.status != wire.StatusOK {
		return x.done()
	}
	if x.lock(s.appendCost(o.ValueLen)) {
		return waiting
	}
	return x.advance()
}

// startBatch takes a client write batch. Items this master does not own
// are answered individually, so a tablet move mid-batch costs the client
// one regroup, not the batch. The owned items take the log head once, with
// the summed cost of their appends: one contention tax for the whole batch
// instead of one per op, so the quadratic "nanoscheduling" cost of Finding
// 2 is paid once. A batch with no owned item pays a read's cost.
func (x *writeOp) startBatch(req rpc.Request, m *wire.MultiWriteReq) outcome {
	s := x.s
	x.req, x.batch, x.obj, x.replayed, x.status = req, m, &x.o, false, wire.StatusOK
	x.items, x.hashes = make([]wire.MultiWriteResult, len(m.Items)), make([]uint64, len(m.Items))
	var cost sim.Duration
	for i := range m.Items {
		it := &m.Items[i]
		x.hashes[i] = hashtable.HashKey(it.Table, it.Key)
		if x.items[i].Status = s.admit(it.Table, x.hashes[i]); x.items[i].Status == wire.StatusOK {
			x.owned++
			cost += s.appendCost(it.ValueLen)
		}
	}
	if x.owned == 0 {
		if x.pay(sim.Scale(s.cfg.Costs.Read, s.interference()), writeDone) {
			return waiting
		}
	} else if x.lock(cost) {
		return waiting
	}
	return x.advance()
}

// lock asks for the log head, to pay cost under it: the waiters are
// counted before the wait, and a thread that finds the head held spins. It
// reports true when the head is held and the op waits for its hand-off.
func (x *writeOp) lock(cost sim.Duration) bool {
	s := x.s
	x.cost = cost
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
			if cur := s.st.Read(x.obj.Table, x.obj.Key, x.obj.KeyHash); cur.Status == wire.StatusOK && cur.Version >= x.obj.Version {
				return x.done()
			}
			if x.lock(s.appendCost(x.obj.ValueLen)) {
				return waiting
			}
		case writeLocked:
			s.endSpin(x.t0, x.spin)
			if x.pay(s.logCost(x.cost, x.waiters), writeCharged) {
				return waiting
			}
		case writeCharged:
			// A blocked append runs this step again on proc in the same
			// instant, so the server's death reads the same. A server
			// that died meanwhile answers StatusError into its downed NIC.
			if s.dead {
				s.logMu.Unlock()
				x.status = wire.StatusError
				for i := range x.items {
					if x.items[i].Status == wire.StatusOK {
						x.items[i].Status = wire.StatusError
					}
				}
				return x.done()
			}
			if !x.appendAll() {
				return blocks
			}
			s.logMu.Unlock()
			if len(x.objs) == x.start {
				return x.done()
			}
			x.sendRun()
		case writePost:
			switch {
			case len(x.acks) < len(x.set):
				if x.pay(x.post, writePosted) {
					return waiting
				}
			case x.chain || x.async:
				// Every ack of the chain is judged; a relaxed fan-out
				// waits for none.
				x.stage = writeDone
			default:
				x.stage = writeAck
			}
		case writePosted:
			b := x.set[len(x.acks)]
			x.acks = append(x.acks, pendingAck{backup: b, call: s.ep.StartCall(simnet.NodeID(b), x.msg)})
			x.stage = writePost
			if x.chain {
				x.stage = writeAck
			}
		case writeAck:
			if x.judged == len(x.acks) {
				x.stage = writeDone
				if x.chain {
					x.stage = writePost
				}
				continue
			}
			x.stage = writeAcked
			if c := &x.acks[x.judged].call; !c.Done() {
				c.Notify(s.cfg.ReplicationTimeout, x.stepFn)
				return waiting
			}
		case writeAcked:
			// A backup is named by the id captured at its send: a failure
			// rewrites the set in place. A call that timed out was
			// deregistered, so its ack, should it still come, is dropped.
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
		case writeDone:
			if !x.rolling {
				return x.done()
			}
			// A roll's sends are over: back to the roll, on proc.
			if x.block() {
				return blocks
			}
			return answered
		default:
			panic("server: writeOp advanced in no stage")
		}
	}
}

// appendAll appends the op's objects, from the next one on, under the log
// head. It reports false when an append must roll at RF > 0 and the op is
// not on its proc: the proc runs the step again.
func (x *writeOp) appendAll() bool {
	if x.batch == nil {
		return x.apply()
	}
	for ; x.next < len(x.items); x.next++ {
		if x.items[x.next].Status != wire.StatusOK {
			continue
		}
		it := &x.batch.Items[x.next]
		x.o = wire.Object{Table: it.Table, KeyHash: x.hashes[x.next], Key: it.Key, ValueLen: it.ValueLen, Value: it.Value}
		if !x.apply() {
			return false
		}
		x.items[x.next] = wire.MultiWriteResult{Status: x.status, Version: x.o.Version}
	}
	x.status = wire.StatusOK
	return true
}

// apply appends obj through store.Apply, its status in status, and counts
// it; at RF > 0 a client's object joins the run to replicate. It reports
// false, having appended nothing, when Apply will roll at RF > 0 and the
// op is not on its proc.
func (x *writeOp) apply() bool {
	s := x.s
	var roll func() // no roll, or one at RF 0, which is the log's alone
	if x.rolls() {
		if x.block() {
			return false
		}
		roll = x.roll
	}
	seg, status := s.st.Apply(x.obj, roll)
	if x.status = status; status != wire.StatusOK {
		return true
	}
	x.seg = seg
	switch {
	case x.replayed:
		s.stats.ObjectsReplay.Inc()
		return true
	case !x.o.Tombstone:
		s.stats.WritesOK.Inc()
	}
	if s.cfg.ReplicationFactor > 0 {
		if x.objs == nil {
			x.objs = make([]wire.Object, 0, x.owned)
		}
		x.objs = append(x.objs, x.o)
	}
	return true
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

// roll is Apply's roll at RF > 0, run on proc with the log head held. A
// batch's run in the head is replicated first, before the roll closes the
// head's replicas. The head is then sealed and its replicas closed
// (async), and the new head's replicas are opened, every open acknowledged
// before the head takes an append.
func (x *writeOp) roll() {
	s := x.s
	if len(x.objs) > x.start {
		x.sendRun()
		x.await()
		x.start = len(x.objs)
	}
	sealed, head := s.st.Log.Roll()
	if sealed != nil {
		closeReq := &wire.CloseSegmentReq{Master: s.id, Segment: sealed.ID(), SegmentBytes: uint32(sealed.Accounted())}
		for _, b := range s.reps.Set(sealed.ID()) {
			s.ep.AsyncCall(simnet.NodeID(b), closeReq)
		}
		s.stats.SegmentsSealed.Inc()
	}
	backups, _ := s.reps.Open(head.ID(), s.cfg.ReplicationFactor, s.eng.Rand())
	x.send(head.ID(), backups, &wire.OpenSegmentReq{Master: s.id, Segment: head.ID()}, s.cfg.Costs.SendOverhead, false)
	x.await()
	// Update the will: the partition layout depends on data volume.
	s.ep.AsyncCall(s.coordinator, &wire.SetWillReq{Master: s.id, Partitions: s.reps.Will(s.st.Tablets, s.st.Log.LiveBytes(), s.cfg.PartitionBytes)})
}

// await runs the sends in hand to their end on proc, inside a roll: the
// proc suspends while they wait, and the callback that ends them, or that
// needs the proc to replace a backup, resumes it inline.
func (x *writeOp) await() {
	x.rolling = true
	for x.advance() == waiting {
		x.onProc = false
		x.proc.Suspend()
		x.onProc = true
	}
	x.rolling = false
	x.stage = writeCharged // back in Apply
}

// sendRun fans the run out to its segment's backups, one request for the
// whole fan-out: the synchronous path that provides strong consistency
// and costs Finding 3's throughput.
func (x *writeOp) sendRun() {
	msg, post := x.s.replication(x.seg, x.objs[x.start:])
	x.send(x.seg, x.s.reps.Set(x.seg), msg, post, false)
	x.async = x.s.cfg.AsyncReplication
}

// sendChain walks objs, replayed into segment, through the segment's
// backups one at a time, each ack judged before the next post.
func (x *writeOp) sendChain(segment uint64, objs []wire.Object) {
	msg, post := x.s.replication(segment, objs)
	x.send(segment, x.s.chain(segment), msg, post, true)
}

// send sets up the sends of msg for segment to set, post paid before each:
// a fan-out, or with chain the serial chain. Every backup gets the same
// message: a sent message is immutable.
func (x *writeOp) send(segment uint64, set []int32, msg wire.Message, post sim.Duration, chain bool) {
	x.seg, x.set, x.msg, x.post, x.chain, x.async = segment, set, msg, post, chain, false
	x.acks, x.judged = x.buf[:0], 0
	x.stage = writePost
}

// done finishes the op: a client request is answered; a replayed object
// or run leaves its outcome, status and seg, to its host.
func (x *writeOp) done() outcome {
	s := x.s
	x.stage = writeIdle
	x.obj, x.objs, x.msg, x.set, x.start, x.next, x.owned = nil, nil, nil, nil, 0, 0, 0
	switch {
	case x.req.Msg == nil:
		return answered
	case x.batch != nil:
		s.ep.Reply(x.req, &wire.MultiWriteResp{Status: x.status, Items: x.items})
	case x.o.Tombstone:
		s.ep.Reply(x.req, &wire.DeleteResp{Status: x.status, Version: x.o.Version})
	default:
		s.ep.Reply(x.req, &wire.WriteResp{Status: x.status, Version: x.o.Version})
	}
	x.req, x.o, x.batch, x.items, x.hashes = rpc.Request{}, wire.Object{}, nil, nil, nil
	return answered
}

// acked judges one backup's answer to a send: ok is false when its
// deadline passed first. ROADMAP 3(a): a refused append (a status other
// than StatusOK) is counted as acknowledged.
func acked(resp wire.Message, ok bool) bool { return ok && resp != nil }
