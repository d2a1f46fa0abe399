package realnode

import (
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// MultiResult is one item's outcome in a real-path MultiRead or
// MultiWrite. Err is nil on success, ErrNotFound for a read of an absent
// key, ErrNoTable for a key no tablet covers, or ErrUnavailable when the
// item exhausted its retries.
type MultiResult struct {
	Value   []byte // reads only
	Version uint64
	Err     error
}

// multiBatch is one per-owner RPC in flight during a multi-op round.
type multiBatch struct {
	idxs []int // indices (into the caller's item slice) this RPC covers
	pc   transport.PendingCall
	ctx  *deadline
}

// MultiRead fetches a batch of keys with at most one RPC per owning
// master per round, the real-path counterpart of the simulated client's
// MultiRead. Per-owner RPCs are pipelined concurrently; items that come
// back WrongServer (or whose owner died mid-batch) are re-grouped against
// a refreshed tablet map and retried, so a partial failure costs only the
// affected items. The result slice is positional: result i answers
// keys[i].
func (c *Client) MultiRead(table uint64, keys [][]byte) []MultiResult {
	return c.multiOp(opRead, table, keys, nil)
}

// MultiWrite stores a batch of key/value pairs with at most one RPC per
// owning master per round. values must be positional with keys. The
// server appends each batch under one log-head acquisition, which is
// where batching wins back the per-op dispatch cost.
func (c *Client) MultiWrite(table uint64, keys, values [][]byte) []MultiResult {
	return c.multiOp(opWrite, table, keys, values)
}

// multiOp runs a batch round by round with the simulated client's rules
// (its multiExec): group the pending items by owner, issue one pipelined
// RPC per owner, judge every item into a store.Round, then refresh the map
// after a Reroute or a lost RPC and pause after a Backoff or a lost RPC.
// Items still pending after the retry budget fail with ErrUnavailable.
func (c *Client) multiOp(kind opKind, table uint64, keys, values [][]byte) []MultiResult {
	res := make([]MultiResult, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	hash := func(i int) uint64 { return hashtable.HashKey(table, keys[i]) }
	for attempt := 0; attempt <= c.cfg.maxRetries() && len(pending) > 0; attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(uint64(len(pending)))
		}
		var (
			ownerBuf [8]int32 // a batch rarely spans more masters; all three stay on the stack
			groupBuf [8][]int
			batchBuf [8]multiBatch
		)
		owners, groups, retry := c.resolveBatch(table, hash, pending, res, c.backoff(attempt), ownerBuf[:0], groupBuf[:0])
		if retry {
			continue
		}

		// One RPC per owner, all in flight together.
		var round store.Round
		lost := false
		batches := batchBuf[:0]
		for g, idxs := range groups {
			b := multiBatch{idxs: idxs, ctx: newDeadline(c.cfg.rpcTimeout())}
			cn, err := c.serverConn(owners[g])
			if err == nil {
				b.pc, err = cn.Start(b.ctx, multiRequest(kind, table, keys, values, idxs))
			}
			if err != nil {
				b.ctx.release()
				round.Lost(idxs)
				lost = true
				continue
			}
			batches = append(batches, b)
		}
		for _, b := range batches {
			resp, err := b.pc.Wait(b.ctx)
			b.ctx.release()
			if err != nil {
				round.Lost(b.idxs)
				lost = true
				continue
			}
			for j, i := range b.idxs {
				st, r := multiItem(resp, j)
				switch round.Judge(i, st, kind == opWrite) {
				case store.Done:
					res[i] = r
					c.stats.Ops.Add(1)
				case store.NotFound:
					res[i] = MultiResult{Err: ErrNotFound}
					c.stats.Ops.Add(1)
				}
			}
		}
		// As on the single-op path, the pause comes first so that the map
		// a lost RPC asks for is read after it.
		if round.Pause || lost {
			time.Sleep(c.backoff(attempt))
		}
		if round.Refresh {
			c.Refresh()
		}
		pending = round.Retry
	}
	for _, i := range pending {
		res[i] = MultiResult{Err: ErrUnavailable}
		c.stats.Failures.Add(1)
	}
	return res
}

// resolveBatch is the simulated client's resolveBatch with wall-clock
// waiting: group the pending items by owner (store.Group, first-contact
// order), refresh the map at most once for keys no tablet covers and fail
// those still uncovered with ErrNoTable, and when a tablet is recovering
// pause, refresh and retry the round (retry=true).
func (c *Client) resolveBatch(table uint64, hash func(int) uint64, pending []int, res []MultiResult, pause time.Duration, ownerBuf []int32, groupBuf [][]int) (owners []int32, groups [][]int, retry bool) {
	for pass := 0; ; pass++ {
		owners, groups, unroutable, recovering := store.Group(c.tabletSnapshot(), table, hash, pending, ownerBuf, groupBuf)
		if recovering {
			time.Sleep(pause)
			c.Refresh()
			return nil, nil, true
		}
		if len(unroutable) == 0 || pass > 0 {
			for _, i := range unroutable {
				res[i] = MultiResult{Err: ErrNoTable}
			}
			return owners, groups, false
		}
		c.Refresh()
	}
}

// multiRequest builds one owner's share of a batch.
func multiRequest(kind opKind, table uint64, keys, values [][]byte, idxs []int) wire.Message {
	if kind == opRead {
		items := make([]wire.MultiReadItem, len(idxs))
		for j, i := range idxs {
			items[j] = wire.MultiReadItem{Table: table, Key: keys[i]}
		}
		return &wire.MultiReadReq{Items: items}
	}
	items := make([]wire.MultiWriteItem, len(idxs))
	for j, i := range idxs {
		items[j] = wire.MultiWriteItem{Table: table, Key: keys[i], ValueLen: uint32(len(values[i])), Value: values[i]}
	}
	return &wire.MultiWriteReq{Items: items}
}

// multiItem reads item j of a batch response: its status and its result
// if it succeeded. A missing item or a message of another kind is an
// error, which backs off.
func multiItem(resp wire.Message, j int) (wire.Status, MultiResult) {
	switch m := resp.(type) {
	case *wire.MultiReadResp:
		if j < len(m.Items) {
			it := &m.Items[j]
			return it.Status, MultiResult{Value: it.Value, Version: it.Version}
		}
	case *wire.MultiWriteResp:
		if j < len(m.Items) {
			return m.Items[j].Status, MultiResult{Version: m.Items[j].Version}
		}
	default: // a message of another kind: malformed, like a missing item
	}
	return wire.StatusError, MultiResult{}
}
