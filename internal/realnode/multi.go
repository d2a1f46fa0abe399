package realnode

import (
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// MultiResult is one item's outcome in a real-path MultiRead or
// MultiWrite. Err is nil on success, ErrNotFound for a read of an
// absent key, or ErrUnavailable when the item exhausted its retries.
type MultiResult struct {
	Value   []byte // reads only
	Version uint64
	Err     error
}

// multiBatch is one per-owner RPC in flight during a multi-op round.
type multiBatch struct {
	idxs []int // indices (into the caller's item slice) this RPC covers
	pc   transport.PendingCall
	ch   chan asyncResult // fallback when the conn lacks Starter
	ctx  *deadline
}

// MultiRead fetches a batch of keys with at most one RPC per owning
// master per round, the real-path counterpart of the simulated client's
// MultiRead (PR 2). Per-owner RPCs are pipelined concurrently; items
// that come back WrongServer (or whose owner died mid-batch) are
// re-grouped against a refreshed tablet map and retried with backoff,
// so a partial failure costs only the affected items. The result slice
// is positional: result i answers keys[i].
func (c *Client) MultiRead(table uint64, keys [][]byte) []MultiResult {
	res := make([]MultiResult, len(keys))
	c.multiOp(len(keys), func(idxs []int) wire.Message {
		items := make([]wire.MultiReadItem, len(idxs))
		for j, i := range idxs {
			items[j] = wire.MultiReadItem{Table: table, Key: keys[i]}
		}
		return &wire.MultiReadReq{Items: items}
	}, func(i int) uint64 {
		return hashtable.HashKey(table, keys[i])
	}, table, func(resp wire.Message, idxs []int, keep func(int)) bool {
		m, ok := resp.(*wire.MultiReadResp)
		if !ok || len(m.Items) != len(idxs) {
			return false
		}
		for j, i := range idxs {
			it := &m.Items[j]
			switch it.Status {
			case wire.StatusOK:
				res[i] = MultiResult{Value: it.Value, Version: it.Version}
				c.stats.Ops.Add(1)
			case wire.StatusUnknownKey:
				res[i] = MultiResult{Err: ErrNotFound}
				c.stats.Ops.Add(1)
			default:
				keep(i)
			}
		}
		return true
	}, res)
	return res
}

// MultiWrite stores a batch of key/value pairs with at most one RPC per
// owning master per round. values must be positional with keys. The
// server appends each batch under one log-head acquisition, which is
// where batching wins back the per-op dispatch cost.
func (c *Client) MultiWrite(table uint64, keys, values [][]byte) []MultiResult {
	res := make([]MultiResult, len(keys))
	c.multiOp(len(keys), func(idxs []int) wire.Message {
		items := make([]wire.MultiWriteItem, len(idxs))
		for j, i := range idxs {
			items[j] = wire.MultiWriteItem{
				Table:    table,
				Key:      keys[i],
				ValueLen: uint32(len(values[i])),
				Value:    values[i],
			}
		}
		return &wire.MultiWriteReq{Items: items}
	}, func(i int) uint64 {
		return hashtable.HashKey(table, keys[i])
	}, table, func(resp wire.Message, idxs []int, keep func(int)) bool {
		m, ok := resp.(*wire.MultiWriteResp)
		if !ok || len(m.Items) != len(idxs) {
			return false
		}
		for j, i := range idxs {
			it := &m.Items[j]
			switch it.Status {
			case wire.StatusOK:
				res[i] = MultiResult{Version: it.Version}
				c.stats.Ops.Add(1)
			case wire.StatusUnknownKey:
				res[i] = MultiResult{Err: ErrNotFound}
				c.stats.Ops.Add(1)
			default:
				keep(i)
			}
		}
		return true
	}, res)
	return res
}

// multiOp drives the shared multi-op retry loop: group the pending
// items by owning master, issue one pipelined RPC per owner, settle
// per-item outcomes, and retry the survivors against a refreshed map
// with capped backoff. Items still unsettled after the retry budget are
// marked ErrUnavailable in res.
func (c *Client) multiOp(
	n int,
	build func(idxs []int) wire.Message,
	hash func(i int) uint64,
	table uint64,
	settle func(resp wire.Message, idxs []int, keep func(int)) bool,
	res []MultiResult,
) {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt <= c.cfg.maxRetries() && len(pending) > 0; attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(uint64(len(pending)))
			time.Sleep(c.backoff(attempt - 1))
		}
		next := pending[:0]
		keep := func(i int) { next = append(next, i) }

		// Group pending items by owner against one snapshot of the
		// tablet map per round. Unroutable items wait for a fresh map.
		// Groups keep first-contact order — a slice scan, no map — so the
		// per-owner RPCs are issued in the same order on every call.
		tablets := c.tabletSnapshot()
		var (
			ownerBuf [8]int32 // a batch rarely spans more masters; both stay on the stack
			groupBuf [8][]int
		)
		owners, groups := ownerBuf[:0], groupBuf[:0]
		stale := false
		for _, i := range pending {
			t := store.Find(tablets, table, hash(i))
			if t == nil {
				stale = true
				keep(i)
				continue
			}
			owner := t.Master
			g := 0
			for g < len(owners) && owners[g] != owner {
				g++
			}
			if g == len(owners) {
				owners = append(owners, owner)
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], i)
		}

		// One RPC per owner, all in flight together.
		batches := make([]multiBatch, 0, len(groups))
		for g, idxs := range groups {
			b, ok := c.startBatch(owners[g], build(idxs), idxs)
			if !ok {
				stale = true
				for _, i := range idxs {
					keep(i)
				}
				continue
			}
			batches = append(batches, b)
		}
		for _, b := range batches {
			var resp wire.Message
			var err error
			if b.pc != nil {
				resp, err = b.pc.Wait(b.ctx)
			} else {
				r := <-b.ch
				resp, err = r.resp, r.err
			}
			b.ctx.release()
			if err != nil || !settle(resp, b.idxs, keep) {
				// Connection lost, deadline, or a malformed response:
				// every item in the batch retries.
				stale = true
				for _, i := range b.idxs {
					keep(i)
				}
			}
		}
		if stale {
			c.Refresh()
		}
		pending = next
	}
	for _, i := range pending {
		res[i] = MultiResult{Err: ErrUnavailable}
		c.stats.Failures.Add(1)
	}
}

// startBatch issues one multi-op RPC toward owner, pipelined when the
// substrate allows it.
func (c *Client) startBatch(owner int32, req wire.Message, idxs []int) (multiBatch, bool) {
	conn, err := c.serverConn(owner)
	if err != nil {
		return multiBatch{}, false
	}
	ctx := newDeadline(c.cfg.rpcTimeout())
	b := multiBatch{idxs: idxs, ctx: ctx}
	if st, ok := conn.(transport.Starter); ok {
		pc, err := st.Start(ctx, req)
		if err != nil {
			ctx.release()
			return multiBatch{}, false
		}
		b.pc = pc
		return b, true
	}
	ch := make(chan asyncResult, 1)
	b.ch = ch
	go func() {
		resp, err := conn.Call(ctx, req)
		ch <- asyncResult{resp, err}
	}()
	return b, true
}
