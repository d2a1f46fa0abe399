package realnode

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// Future is one asynchronous operation in flight against the real
// cluster. The request is pipelined onto the owner's connection at
// creation (no goroutine per call on a transport.Starter substrate);
// Wait resolves it. The fast path — request lands on the right server
// and succeeds — costs one pipelined RPC; any retryable outcome falls
// back to the synchronous retry loop inside Wait, so a Future has
// exactly the same semantics as its synchronous counterpart.
//
// A bounded window of Futures per goroutine is how the real path keeps
// the wire full: issue D, then reap-and-replace. See RunYCSB's
// Pipeline option.
type Future struct {
	c *Client

	table uint64
	key   []byte
	mk    func() wire.Message

	pc       transport.PendingCall
	fallback chan asyncResult
	ctx      *deadline // the pipelined attempt's; released by resolve
	startErr error
}

type asyncResult struct {
	resp wire.Message
	err  error
}

// startOp issues one pipelined attempt toward the owner of (table, key).
// Failures to even start (no tablet, dial error) are remembered and
// surfaced as attempt zero when Wait runs the retry loop.
func (c *Client) startOp(table uint64, key []byte, mk func() wire.Message) *Future {
	f := &Future{c: c, table: table, key: key, mk: mk}
	conn, err := c.route(table, hashtable.HashKey(table, key))
	if err != nil {
		f.startErr = err
		return f
	}
	f.ctx = newDeadline(c.cfg.rpcTimeout())
	if st, ok := conn.(transport.Starter); ok {
		pc, err := st.Start(f.ctx, mk())
		if err != nil {
			f.ctx.release()
			f.startErr = err
			return f
		}
		f.pc = pc
		return f
	}
	// Substrate without pipelining: fall back to one goroutine.
	ch := make(chan asyncResult, 1)
	f.fallback = ch
	go func() {
		resp, err := conn.Call(f.ctx, mk())
		ch <- asyncResult{resp, err}
	}()
	return f
}

// resolve blocks for the pipelined attempt's outcome (attempt zero of
// the retry loop).
func (f *Future) resolve() (wire.Message, wire.Status, error) {
	if f.startErr != nil {
		return nil, 0, f.startErr
	}
	var (
		resp wire.Message
		err  error
	)
	if f.pc != nil {
		resp, err = f.pc.Wait(f.ctx)
	} else {
		r := <-f.fallback
		resp, err = r.resp, r.err
	}
	f.ctx.release() // after the fallback goroutine, if any, has reported back
	return classify(resp, err)
}

// wait drives the shared retry loop with the pipelined attempt as
// attempt zero.
func (f *Future) wait() (wire.Message, error) {
	return f.c.opResume(f.table, f.key, f.mk, f.resolve)
}

// Wait resolves the operation: (value, version, error) for reads,
// (nil, version, error) for writes and deletes. It must be called
// exactly once per Future.
func (f *Future) Wait() ([]byte, uint64, error) {
	resp, err := f.wait()
	if err != nil {
		return nil, 0, err
	}
	switch m := resp.(type) {
	case *wire.ReadResp:
		return m.Value, m.Version, nil
	case *wire.WriteResp:
		return nil, m.Version, nil
	case *wire.DeleteResp:
		return nil, m.Version, nil
	default:
		// classify already rejected anything else as a protocol error.
		return nil, 0, nil
	}
}

// GetAsync issues a pipelined read. Resolve it with Wait.
func (c *Client) GetAsync(table uint64, key []byte) *Future {
	return c.startOp(table, key, func() wire.Message {
		return &wire.ReadReq{Table: table, Key: key}
	})
}

// PutAsync issues a pipelined write. Resolve it with Wait.
func (c *Client) PutAsync(table uint64, key, value []byte) *Future {
	return c.startOp(table, key, func() wire.Message {
		return &wire.WriteReq{Table: table, Key: key, ValueLen: uint32(len(value)), Value: value}
	})
}

// DeleteAsync issues a pipelined delete. Resolve it with Wait.
func (c *Client) DeleteAsync(table uint64, key []byte) *Future {
	return c.startOp(table, key, func() wire.Message {
		return &wire.DeleteReq{Table: table, Key: key}
	})
}
