package realnode

import (
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// Future is one asynchronous operation in flight against the real
// cluster. Its first attempt is pipelined onto the owner's connection at
// creation (no goroutine per call); Wait resolves it as attempt zero of
// the same run loop Get, Put and Delete use, so a Future has exactly the
// semantics of its synchronous counterpart. When the cached map does not
// route the key to a master that is serving, nothing is started and Wait
// runs every attempt itself.
//
// A bounded window of Futures per goroutine is how the real path keeps
// the wire full: issue D, then reap-and-replace. See RunYCSB's
// Pipeline option.
type Future struct {
	c  *Client
	op op

	pc  transport.PendingCall // attempt zero; nil if none was started
	ctx *deadline             // pc's; released when it resolves
}

// start issues o's first attempt pipelined, if the cached map routes it.
func (c *Client) start(o op) *Future {
	f := &Future{c: c, op: o}
	t, cn, err := c.route(o.table, o.keyHash)
	if t == nil || t.Recovering || err != nil {
		return f
	}
	f.ctx = newDeadline(c.cfg.rpcTimeout())
	if f.pc, err = cn.Start(f.ctx, f.op.request()); err != nil {
		f.ctx.release()
		f.pc = nil
	}
	return f
}

// resolve waits for attempt zero.
func (f *Future) resolve() (wire.Message, error) {
	resp, err := f.pc.Wait(f.ctx)
	f.ctx.release()
	return resp, err
}

// Wait resolves the operation: (value, version, error) for reads,
// (nil, version, error) for writes and deletes. It must be called
// exactly once per Future.
func (f *Future) Wait() ([]byte, uint64, error) {
	if f.pc == nil {
		return f.c.run(&f.op, nil)
	}
	return f.c.run(&f.op, f.resolve)
}

// GetAsync issues a pipelined read. Resolve it with Wait.
func (c *Client) GetAsync(table uint64, key []byte) *Future {
	return c.start(newOp(opRead, table, key, nil))
}

// PutAsync issues a pipelined write. Resolve it with Wait.
func (c *Client) PutAsync(table uint64, key, value []byte) *Future {
	return c.start(newOp(opWrite, table, key, value))
}

// DeleteAsync issues a pipelined delete. Resolve it with Wait.
func (c *Client) DeleteAsync(table uint64, key []byte) *Future {
	return c.start(newOp(opDelete, table, key, nil))
}
