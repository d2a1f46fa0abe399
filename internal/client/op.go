package client

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/metrics"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the client's single operation-execution core. An
// attempt is two steps: open issues its RPC when the tablet map routes the
// key, and settle judges the answer, or the timeout, and either finishes
// the op or names what must block before the next attempt. One retry loop
// (Op.Wait) drives them on a proc for Read, Write and Delete, synchronous
// and asynchronous alike, and is the only code that blocks. An op begun
// with BeginRead or BeginWrite runs the same two steps as engine callbacks
// and is handed to Wait only when it must block; every sequence number is
// drawn where Wait's proc draws it, so the event order, every recorded
// latency and every experiment rendering are those of the proc.

// opKind selects the operation an Op executes.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opDelete
)

// blocker is what must block, on Wait's proc, before an op's next
// attempt: what stopped open, or what settle made of the last attempt.
type blocker uint8

const (
	noBlock    blocker = iota
	noRoute            // the map routes no tablet: refresh it, or fail
	inRecovery         // the tablet is recovering: poll the map
	timedOut           // no answer: back off when configured, refresh
	rerouted           // the master moved the tablet: refresh
	refused            // a retryable status: pause
)

// Op is one asynchronous operation future. It is created by
// ReadAsync/WriteAsync/DeleteAsync (or internally by the synchronous
// methods); Wait(p) blocks until the operation completes, driving retries
// through recoveries and server changes exactly like the synchronous path.
//
// The first RPC attempt is issued at creation time when the route is
// already known, so the wire time of an async op overlaps whatever the
// caller does between issue and Wait — that overlap is the pipelining win.
type Op struct {
	c       *Client
	kind    opKind
	table   uint64
	key     []byte
	keyHash uint64

	valueLen uint32
	value    []byte

	start sim.Time

	call     rpc.Call // valid while inflight, released when settled
	inflight bool

	attempt int     // attempts made, the current one included
	fails   int     // consecutive retryable failures, drives backoff
	block   blocker // what Wait must do before the next attempt
	wake    func()  // the callback of an op begun with BeginRead/BeginWrite

	finished  bool
	resultLen uint32
	resultVal []byte
	err       error
}

// startOp allocates an Op and initializes it; the synchronous methods use
// initOp directly on a stack value instead, keeping the hot path free of
// the extra allocation.
func (c *Client) startOp(p *sim.Proc, kind opKind, table uint64, key []byte, valueLen uint32, value []byte, overhead sim.Duration) *Op {
	o := &Op{}
	c.initOp(p, o, kind, table, key, valueLen, value, overhead)
	return o
}

// initOp pays the client-side per-op overhead, stamps the operation's
// start time and issues the first RPC attempt if the tablet map already
// routes the key. Retries and unroutable keys are handled in Wait.
func (c *Client) initOp(p *sim.Proc, o *Op, kind opKind, table uint64, key []byte, valueLen uint32, value []byte, overhead sim.Duration) {
	if overhead > 0 {
		p.Sleep(overhead)
	}
	o.init(c, kind, table, key, valueLen, value, p.Now())
	o.open()
}

func (o *Op) init(c *Client, kind opKind, table uint64, key []byte, valueLen uint32, value []byte, start sim.Time) {
	*o = Op{
		c:        c,
		kind:     kind,
		table:    table,
		key:      key,
		keyHash:  hashtable.HashKey(table, key),
		valueLen: valueLen,
		value:    value,
		start:    start,
	}
}

// BeginRead starts a read driven by engine callbacks instead of a proc:
// the client's read overhead is a scheduled wait, the RPC is issued when
// it ends and its answer or timeout settles the op. wake is the callback
// each of these schedules, bound once by the caller; when it runs, the
// caller calls Step. BeginRead returns what Step returns. Every sequence
// number is drawn where Read draws it, so a closed loop over BeginRead
// and Step runs the events of one over Read.
func (c *Client) BeginRead(o *Op, table uint64, key []byte, wake func()) bool {
	return c.begin(o, opRead, table, key, 0, c.cfg.ReadOverhead, wake)
}

// BeginWrite is BeginRead for a write of a virtual value of valueLen
// bytes, paying the update overhead.
func (c *Client) BeginWrite(o *Op, table uint64, key []byte, valueLen uint32, wake func()) bool {
	return c.begin(o, opWrite, table, key, valueLen, c.cfg.UpdateOverhead, wake)
}

func (c *Client) begin(o *Op, kind opKind, table uint64, key []byte, valueLen uint32, overhead sim.Duration, wake func()) bool {
	overhead = max(overhead, 0)
	o.init(c, kind, table, key, valueLen, nil, c.eng.Now().Add(overhead))
	o.wake = wake
	if overhead > 0 {
		c.eng.Schedule(overhead, wake)
		return true
	}
	return o.Step()
}

// Step advances an op begun with BeginRead or BeginWrite, from its wake
// callback: at the end of the overhead it issues the RPC, and once the
// RPC is answered or times out it settles the op. It returns true while
// the op waits on wake, and false once the op needs Wait: Wait returns at
// once if the op is Done, and must run on a proc otherwise, to block.
func (o *Op) Step() bool {
	if o.inflight {
		o.settle(o.call.Result())
		return false
	}
	if o.block = o.open(); o.block != noBlock {
		return false
	}
	o.call.Notify(o.c.cfg.RPCTimeout, o.wake)
	return true
}

// open issues the next attempt when the tablet map routes the key to a
// master that is not recovering, and returns what blocks it otherwise.
func (o *Op) open() blocker {
	master, recovering, found := o.c.locate(o.table, o.keyHash)
	if !found {
		return noRoute
	}
	if recovering {
		return inRecovery
	}
	o.call = o.c.ep.StartCall(master, o.request())
	o.inflight = true
	return noBlock
}

// settle ends the attempt in flight, answered or timed out: its call is
// released and the op finishes or notes what blocks its next attempt.
func (o *Op) settle(resp wire.Message, ok bool) {
	c := o.c
	doneAt := o.call.ResolvedAt()
	o.call.Release()
	o.inflight = false
	if !ok {
		c.stats.Timeouts.Inc()
		o.block = timedOut
		return
	}
	st, valueLen, value := o.classify(resp)
	switch store.Judge(st, o.kind == opWrite) {
	case store.Done:
		c.recordCompleted(o.start, doneAt, o.hist())
		o.finish(valueLen, value, nil)
	case store.NotFound:
		c.recordCompleted(o.start, doneAt, o.hist())
		o.finish(0, nil, ErrNotFound)
	case store.Reroute:
		c.stats.Retries.Inc()
		o.block = rerouted
	default:
		c.stats.Retries.Inc()
		o.block = refused
	}
}

// pause does on the proc what blocks the next attempt, and may finish the
// op: a key whose table stays unknown fails.
func (o *Op) pause(p *sim.Proc) {
	c := o.c
	switch o.block {
	case noRoute:
		c.refreshTablets(p)
		if _, _, found := c.locate(o.table, o.keyHash); !found {
			o.finish(0, nil, ErrNoTable)
		}
	case inRecovery:
		p.Sleep(c.cfg.RecoveringBackoff)
		c.refreshTablets(p)
	case timedOut:
		if c.cfg.Backoff.Base > 0 {
			// Legacy clients retry a timeout immediately (the refresh
			// round trip is their only pacing); hardened clients back
			// off so a lossy fabric is not amplified by retries.
			p.Sleep(c.backoffDelay(o.fails))
			o.fails++
		}
		c.refreshTablets(p)
	case rerouted:
		c.refreshTablets(p)
		o.fails = 0 // progress: the map moved, not a failure of the op
	case refused:
		c.retryPause(p, o.fails)
		o.fails++
	}
	o.block = noBlock
}

// request builds the wire message for one attempt.
func (o *Op) request() wire.Message {
	switch o.kind {
	case opRead:
		return &wire.ReadReq{Table: o.table, Key: o.key}
	case opWrite:
		return &wire.WriteReq{Table: o.table, Key: o.key, ValueLen: o.valueLen, Value: o.value}
	default:
		return &wire.DeleteReq{Table: o.table, Key: o.key}
	}
}

// hist returns the latency sink for this op kind.
func (o *Op) hist() *metrics.Histogram {
	if o.kind == opRead {
		return o.c.stats.ReadLatency
	}
	return o.c.stats.WriteLatency
}

// classify extracts the status and payload from a response message.
func (o *Op) classify(resp wire.Message) (st wire.Status, valueLen uint32, value []byte) {
	switch m := resp.(type) {
	case *wire.ReadResp:
		return m.Status, m.ValueLen, m.Value
	case *wire.WriteResp:
		return m.Status, 0, nil
	case *wire.DeleteResp:
		return m.Status, 0, nil
	default:
		return wire.StatusError, 0, nil
	}
}

// finish memoizes the op's outcome so repeated Waits return it.
func (o *Op) finish(valueLen uint32, value []byte, err error) {
	o.finished = true
	o.resultLen, o.resultVal, o.err = valueLen, value, err
	o.inflight = false
}

// Done reports whether the current attempt's response has arrived (or the
// op already finished). It is a readiness hint: Wait usually returns
// immediately after Done is true, but a response carrying a retryable
// status (e.g. a moved tablet) still makes Wait drive further attempts.
func (o *Op) Done() bool {
	return o.finished || (o.inflight && o.call.Done())
}

// Wait blocks until the operation completes and returns its result. For a
// read, valueLen is the declared length and value the bytes (nil under
// virtual payloads); writes and deletes return zero values. The recorded
// latency covers the whole operation from issue, retries included. Each
// pass takes one attempt, or does what blocks the next one and counts the
// attempt it ends; past MaxRetries attempts the op fails.
func (o *Op) Wait(p *sim.Proc) (valueLen uint32, value []byte, err error) {
	c := o.c
	for !o.finished {
		if o.block != noBlock {
			o.pause(p)
			o.attempt++
			continue
		}
		if o.attempt > c.cfg.MaxRetries {
			c.stats.Failures.Inc()
			o.finish(0, nil, ErrUnavailable)
			break
		}
		if !o.inflight {
			if o.block = o.open(); o.block != noBlock {
				continue
			}
		}
		o.settle(o.call.WaitTimeout(p, c.cfg.RPCTimeout))
	}
	return o.resultLen, o.resultVal, o.err
}

// ReadAsync issues a read without waiting for its completion and returns a
// future. The per-op client overhead is still paid up front (it models CPU
// spent building the request), but the RPC round trip overlaps whatever the
// caller does before Wait.
func (c *Client) ReadAsync(p *sim.Proc, table uint64, key []byte) *Op {
	c.stats.AsyncOps.Inc()
	return c.startOp(p, opRead, table, key, 0, nil, c.cfg.ReadOverhead)
}

// WriteAsync issues a write without waiting for durability. Wait returns
// once the write is durable (replicated when the cluster replicates).
func (c *Client) WriteAsync(p *sim.Proc, table uint64, key []byte, valueLen uint32, value []byte) *Op {
	c.stats.AsyncOps.Inc()
	return c.startOp(p, opWrite, table, key, valueLen, value, c.cfg.UpdateOverhead)
}

// DeleteAsync issues a delete without waiting for its completion.
func (c *Client) DeleteAsync(p *sim.Proc, table uint64, key []byte) *Op {
	c.stats.AsyncOps.Inc()
	return c.startOp(p, opDelete, table, key, 0, nil, c.cfg.UpdateOverhead)
}
