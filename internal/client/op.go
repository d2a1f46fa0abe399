package client

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/metrics"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements the client's single operation-execution core. One
// retry loop (Op.Wait) serves Read, Write and Delete — synchronous and
// asynchronous alike — replacing the three copy-pasted locate/backoff/retry
// loops the client used to carry. The synchronous methods are just
// startOp + Wait back to back, so their event sequence (and therefore every
// recorded latency and experiment rendering) is unchanged.

// opKind selects the operation an Op executes.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opDelete
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

	call     rpc.Call // valid while inflight, released after its wait
	inflight bool

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
	*o = Op{
		c:        c,
		kind:     kind,
		table:    table,
		key:      key,
		keyHash:  hashtable.HashKey(table, key),
		valueLen: valueLen,
		value:    value,
		start:    p.Now(),
	}
	if master, recovering, found := c.locate(table, o.keyHash); found && !recovering {
		o.call = c.ep.StartCall(master, o.request())
		o.inflight = true
	}
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
func (o *Op) finish(valueLen uint32, value []byte, err error) (uint32, []byte, error) {
	o.finished = true
	o.resultLen, o.resultVal, o.err = valueLen, value, err
	o.inflight = false
	return valueLen, value, err
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
// latency covers the whole operation from issue, retries included.
func (o *Op) Wait(p *sim.Proc) (valueLen uint32, value []byte, err error) {
	if o.finished {
		return o.resultLen, o.resultVal, o.err
	}
	c := o.c
	fails := 0 // consecutive retryable failures, drives exponential backoff
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if !o.inflight {
			master, recovering, found := c.locate(o.table, o.keyHash)
			if !found {
				c.refreshTablets(p)
				if _, _, again := c.locate(o.table, o.keyHash); !again {
					return o.finish(0, nil, ErrNoTable)
				}
				continue
			}
			if recovering {
				p.Sleep(c.cfg.RecoveringBackoff)
				c.refreshTablets(p)
				continue
			}
			o.call = c.ep.StartCall(master, o.request())
			o.inflight = true
		}
		resp, ok := o.call.WaitTimeout(p, c.cfg.RPCTimeout)
		doneAt := o.call.ResolvedAt()
		o.call.Release()
		o.inflight = false
		if !ok {
			c.stats.Timeouts.Inc()
			if c.cfg.Backoff.Base > 0 {
				// Legacy clients retry a timeout immediately (the refresh
				// round trip is their only pacing); hardened clients back
				// off so a lossy fabric is not amplified by retries.
				p.Sleep(c.backoffDelay(fails))
				fails++
			}
			c.refreshTablets(p)
			continue
		}
		st, valueLen, value := o.classify(resp)
		switch store.Judge(st, o.kind == opWrite) {
		case store.Done:
			c.recordCompleted(o.start, doneAt, o.hist())
			return o.finish(valueLen, value, nil)
		case store.NotFound:
			c.recordCompleted(o.start, doneAt, o.hist())
			return o.finish(0, nil, ErrNotFound)
		case store.Reroute:
			c.stats.Retries.Inc()
			c.refreshTablets(p)
			fails = 0 // progress: the map moved, not a failure of the op
		default:
			c.stats.Retries.Inc()
			c.retryPause(p, fails)
			fails++
		}
	}
	c.stats.Failures.Inc()
	return o.finish(0, nil, ErrUnavailable)
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
