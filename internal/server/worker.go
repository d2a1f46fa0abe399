package server

import (
	"fmt"

	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

// This file implements the worker threads: the client workers, each fed
// the requests of its connections by the dispatch thread, and the backup
// service thread. Each runs RAMCloud's worker loop, which spins for
// Costs.SpinTimeout before it sleeps, over a FIFO of requests.
//
// A worker is a proc only while it blocks. A request that never blocks (a
// read or multi-read, a replica open, append or close, a free or
// inventory request, a ping) runs as engine callbacks: its prefix checks
// it and charges its service time, one scheduled callback waits that time
// out, and its tail answers and takes the next request. A write, delete
// or write batch runs as callbacks too, step by step (writeOp, write.go).
// What blocks for real runs on the worker's proc, suspended otherwise and
// resumed inline by the callback that needs it: a roll at RF > 0, the
// replacement of a backup that missed its deadline, and a recovery data,
// recover or take request. Every sequence number is drawn where a worker
// that is a proc throughout drew it: its wake-up on a push, the end of its
// sleep through each service time, its hand-off of the log head and each
// ack's arrival or deadline. The event order is that proc's.

// worker is one worker thread and its queue.
type worker struct {
	s      *Server
	q      sim.Queue[rpc.Request] // held by value: one allocation fewer
	proc   *sim.Proc
	stepFn func() // step, bound once so scheduling it allocates nothing

	// wr is the write, delete or batch in hand, if any; step advances it.
	wr writeOp

	idle    bool     // the queue was found empty: a push wakes the worker
	pending bool     // the tail of inHand is scheduled
	t0      sim.Time // the top of the loop, where the current spin began

	// inHand is a request between its prefix and its tail, or a blocking
	// request on its way to the proc. keyHash, items, hashes and
	// replicated carry what a prefix computed to its tail.
	inHand     rpc.Request
	keyHash    uint64
	items      []wire.MultiReadResult
	hashes     []uint64
	replicated *wire.ReplicateResp
}

// outcome is where a worker stands once it has taken a request.
type outcome int

const (
	answered outcome = iota // the request is done: take the next
	waiting                 // idle, or a service time is running out
	blocks                  // the request, or the write's step, must run on the proc
	exits                   // the server died: the proc must return
)

func (w *worker) init(s *Server) {
	w.s, w.q = s, *sim.NewQueue[rpc.Request](s.eng)
	w.stepFn = w.step
	w.wr.s, w.wr.stepFn = s, w.stepFn
}

// push queues req and wakes an idle worker at the current instant, where
// a proc parked on the queue was woken.
func (w *worker) push(req rpc.Request) {
	w.q.Push(req)
	if w.idle {
		w.idle = false
		w.s.eng.ScheduleAt(w.s.eng.Now(), w.stepFn)
	}
}

// loop is the worker's proc. Its first resume runs the top of the worker
// loop; from then on it serves the requests that block and the write's
// steps that do, and is suspended between them. Until it suspends it
// carries the worker loop on itself, as the callbacks would.
func (w *worker) loop(p *sim.Proc) {
	w.wr.onProc = true
	req, o := w.next()
	for {
		switch o {
		case exits:
			return
		case answered:
			req, o = w.next()
		case blocks:
			if w.wr.blocked {
				o = w.wr.advance()
			} else {
				w.s.serve(p, req)
				req, o = w.next()
			}
		case waiting:
			w.wr.onProc = false
			p.Suspend()
			w.wr.onProc = true
			req, w.inHand = w.inHand, rpc.Request{}
			if req.Msg == nil && !w.wr.blocked {
				return // resumed to exit: the server died
			}
			o = blocks
		}
	}
}

// step is the worker's scheduled callback: the wake-up of an idle worker
// by a push, the end of the service time of the request in hand, or a
// wait of the write in hand ended (its log head handed over, a service
// time or post paid, an ack in or overdue).
func (w *worker) step() {
	var req rpc.Request
	var o outcome
	switch {
	case w.wr.stage != writeIdle:
		o = w.wr.advance()
	case w.pending:
		w.pending = false
		w.finish()
		o = answered
	default:
		req, _ = w.q.TryPop()
		o = w.take(req)
	}
	if o == answered {
		req, o = w.next()
	}
	w.handOff(req, o)
}

// handOff resumes the proc, inline, when what the worker reached needs it:
// a request that blocks, a write's blocking step, or the exit.
func (w *worker) handOff(req rpc.Request, o outcome) {
	switch o {
	case blocks:
		w.inHand = req
		w.s.eng.Resume(w.proc)
	case exits:
		w.s.eng.Resume(w.proc)
	}
}

// next runs the worker loop from its top: the spin is accounted
// optimistically, then queued requests are taken until one has to wait,
// one blocks, the queue is empty or the server is dead.
func (w *worker) next() (rpc.Request, outcome) {
	spin := w.s.cfg.Costs.SpinTimeout
	for {
		if w.s.dead {
			return rpc.Request{}, exits
		}
		w.t0 = w.s.eng.Now()
		if spin > 0 {
			w.s.node.AddBusy(w.t0, w.t0.Add(spin))
		}
		req, ok := w.q.TryPop()
		if !ok {
			w.idle = true
			return req, waiting
		}
		if o := w.take(req); o != answered {
			return req, o
		}
	}
}

// take starts req, just popped: the part of the spin that was not waited
// is taken back and the request's prefix runs.
func (w *worker) take(req rpc.Request) outcome {
	if w.s.dead {
		return exits
	}
	now, spin := w.s.eng.Now(), w.s.cfg.Costs.SpinTimeout
	if now.Sub(w.t0) < spin {
		w.s.node.SubBusy(now, w.t0.Add(spin))
	}
	return w.start(req)
}

// start runs the prefix of a request that never blocks, and pays its
// service time, or a write, delete or write batch up to its first wait; a
// request that blocks is left to the proc.
func (w *worker) start(req rpc.Request) outcome {
	s := w.s
	var d sim.Duration
	tail := true
	switch m := req.Msg.(type) {
	case *wire.ReadReq:
		d, tail = w.startRead(req, m)
	case *wire.WriteReq:
		return w.wr.startWrite(req, wire.Object{Table: m.Table, Key: m.Key, ValueLen: m.ValueLen, Value: m.Value})
	case *wire.DeleteReq:
		return w.wr.startWrite(req, wire.Object{Table: m.Table, Key: m.Key, Tombstone: true})
	case *wire.MultiWriteReq:
		return w.wr.startBatch(req, m)
	case *wire.MultiReadReq:
		d = w.startMultiRead(m)
	case *wire.OpenSegmentReq:
		d = sim.Scale(s.cfg.Costs.SegmentOpen, s.interference())
	case *wire.ReplicateReq:
		d, tail = w.startReplicate(req, m)
	case *wire.CloseSegmentReq:
		s.serveCloseSegment(req, m)
		tail = false
	case *wire.FreeReplicasReq, *wire.SegmentInventoryReq:
		d = s.cfg.Costs.SegmentOpen
	case *wire.PingReq:
		s.ep.Reply(req, &wire.PingResp{Seq: m.Seq})
		tail = false
	default:
		return blocks
	}
	if !tail {
		return answered
	}
	w.inHand = req
	return w.pay(d)
}

// pay burns d of worker CPU before the tail of the request in hand: the
// span is accounted on the node and the tail scheduled at its end. With
// no service time the tail runs at once and nothing is scheduled.
func (w *worker) pay(d sim.Duration) outcome {
	if d <= 0 {
		w.finish()
		return answered
	}
	now := w.s.eng.Now()
	w.s.node.AddBusy(now, now.Add(d))
	w.pending = true
	w.s.eng.ScheduleAt(now.Add(d), w.stepFn)
	return waiting
}

// finish runs the tail of the request in hand, its service time paid.
func (w *worker) finish() {
	s := w.s
	req := w.inHand
	w.inHand = rpc.Request{}
	switch m := req.Msg.(type) {
	case *wire.ReadReq:
		w.finishRead(req, m)
	case *wire.MultiReadReq:
		w.finishMultiRead(req, m)
	case *wire.OpenSegmentReq:
		s.ep.Reply(req, s.backups.Open(m))
	case *wire.ReplicateReq:
		w.finishReplicate(req, m)
	case *wire.FreeReplicasReq:
		s.ep.Reply(req, s.backups.Free(m))
	case *wire.SegmentInventoryReq:
		s.ep.Reply(req, s.backups.Inventory(m))
	default:
		panic(fmt.Sprintf("server %d: no tail for %T", s.id, req.Msg))
	}
}
