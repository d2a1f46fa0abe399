package client

import (
	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file implements multi-op batching: MultiRead and MultiWrite
// partition a key batch by tablet owner and issue one RPC per involved
// master (real RAMCloud's MultiRead/MultiWrite). Items that hit a moved
// tablet or a timeout are retried individually while the rest of the batch
// completes, so a split or crash mid-batch degrades to extra round trips,
// never to wrong results.

// MultiResult is one item's outcome in a MultiRead or MultiWrite batch.
// Results are positional: result i answers keys[i] (or ops[i]).
type MultiResult struct {
	ValueLen uint32
	Value    []byte // nil under virtual payloads
	Version  uint64
	Err      error
}

// MultiWriteOp is one write in a MultiWrite batch. Value may be nil for a
// virtual payload of ValueLen declared bytes.
type MultiWriteOp struct {
	Key      []byte
	ValueLen uint32
	Value    []byte
}

// batchOverhead is the client CPU burned assembling an n-item multi-op
// batch: the full per-op cost for the first item plus the marginal
// BatchItemOverhead for each further item. This amortization is what lets
// a batched client exceed the paper's per-client closed-loop ceiling.
func (c *Client) batchOverhead(base sim.Duration, n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return base + sim.Duration(int64(c.cfg.BatchItemOverhead)*int64(n-1))
}

// resolveBatch groups the pending items by owning master (store.Group:
// first-contact order, so batch RPC issue order is deterministic),
// refreshing the tablet map at most once for unknown tablets. Items that
// stay unknown after the refresh fail with ErrNoTable, the single-op
// path's answer. If any involved tablet is recovering, the whole remainder
// backs off and retries: retry=true, consuming one attempt, like the
// single-op recovery poll.
func (c *Client) resolveBatch(p *sim.Proc, table uint64, hashes []uint64, pending []int, out []MultiResult) (masters []int32, groups [][]int, retry bool) {
	hash := func(i int) uint64 { return hashes[i] }
	for pass := 0; ; pass++ {
		masters, groups, unroutable, recovering := store.Group(c.tablets, table, hash, pending, nil, nil)
		if recovering {
			p.Sleep(c.cfg.RecoveringBackoff)
			c.refreshTablets(p)
			return nil, nil, true
		}
		if len(unroutable) == 0 || pass > 0 {
			for _, i := range unroutable {
				out[i].Err = ErrNoTable
			}
			return masters, groups, false
		}
		c.refreshTablets(p)
	}
}

// multiExec is the shared retry loop behind MultiRead and MultiWrite: it
// resolves pending items to masters, issues one RPC per master per attempt
// (in first-contact order), gathers the responses in the same order, and
// retries whatever the round kept. issue builds and sends the multi-op
// request for one group; handle judges one response's items into round.
func (c *Client) multiExec(p *sim.Proc, table uint64, hashes []uint64, out []MultiResult,
	issue func(master simnet.NodeID, idx []int) rpc.Call,
	handle func(resp wire.Message, idx []int, round *store.Round)) {
	pending := make([]int, len(hashes))
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt <= c.cfg.MaxRetries && len(pending) > 0; attempt++ {
		masters, groups, retry := c.resolveBatch(p, table, hashes, pending, out)
		if retry {
			continue
		}
		calls := make([]rpc.Call, len(groups))
		for g := range groups {
			calls[g] = issue(simnet.NodeID(masters[g]), groups[g])
			c.stats.BatchRPCs.Inc()
		}
		var round store.Round
		for g := range calls {
			resp, ok := calls[g].WaitTimeout(p, c.cfg.RPCTimeout)
			calls[g].Release()
			if !ok {
				c.stats.Timeouts.Inc()
				round.Lost(groups[g])
				continue
			}
			handle(resp, groups[g], &round)
		}
		// Refresh and pause are independent, mirroring the single-op
		// policy per item: a Reroute or a timeout invalidates the map, a
		// Backoff paces the next attempt.
		if round.Refresh {
			c.refreshTablets(p)
		}
		if round.Pause {
			c.retryPause(p, attempt)
		}
		pending = round.Retry
	}
	for _, i := range pending {
		out[i].Err = ErrUnavailable
		c.stats.Failures.Inc()
	}
}

// MultiRead fetches a batch of keys, issuing at most one RPC per involved
// master per attempt. The returned slice is positional. Latency is
// recorded per item, covering the whole batch operation from issue.
func (c *Client) MultiRead(p *sim.Proc, table uint64, keys [][]byte) []MultiResult {
	n := len(keys)
	out := make([]MultiResult, n)
	if n == 0 {
		return out
	}
	if d := c.batchOverhead(c.cfg.ReadOverhead, n); d > 0 {
		p.Sleep(d)
	}
	start := p.Now()
	hashes := make([]uint64, n)
	for i := range keys {
		hashes[i] = hashtable.HashKey(table, keys[i])
	}
	c.multiExec(p, table, hashes, out,
		func(master simnet.NodeID, idx []int) rpc.Call {
			items := make([]wire.MultiReadItem, len(idx))
			for j, i := range idx {
				items[j] = wire.MultiReadItem{Table: table, Key: keys[i]}
			}
			return c.ep.StartCall(master, &wire.MultiReadReq{Items: items})
		},
		func(resp wire.Message, idx []int, round *store.Round) {
			m, ok := resp.(*wire.MultiReadResp)
			for j, i := range idx {
				st := wire.StatusError // a malformed response retries its items
				if ok && j < len(m.Items) {
					st = m.Items[j].Status
				}
				switch round.Judge(i, st, false) {
				case store.Done:
					it := &m.Items[j]
					out[i] = MultiResult{ValueLen: it.ValueLen, Value: it.Value, Version: it.Version}
				case store.NotFound:
					out[i].Err = ErrNotFound
				default:
					c.stats.Retries.Inc()
					continue
				}
				c.record(start, c.stats.ReadLatency)
				c.stats.BatchedOps.Inc()
			}
		})
	return out
}

// MultiWrite stores a batch of objects, issuing at most one RPC per
// involved master per attempt. Each receiving master appends its share of
// the batch under a single log-head acquisition and replicates it in one
// fan-out per segment. The returned slice is positional; a nil Err means
// that item is durably written.
func (c *Client) MultiWrite(p *sim.Proc, table uint64, ops []MultiWriteOp) []MultiResult {
	n := len(ops)
	out := make([]MultiResult, n)
	if n == 0 {
		return out
	}
	if d := c.batchOverhead(c.cfg.UpdateOverhead, n); d > 0 {
		p.Sleep(d)
	}
	start := p.Now()
	hashes := make([]uint64, n)
	for i := range ops {
		hashes[i] = hashtable.HashKey(table, ops[i].Key)
	}
	c.multiExec(p, table, hashes, out,
		func(master simnet.NodeID, idx []int) rpc.Call {
			items := make([]wire.MultiWriteItem, len(idx))
			for j, i := range idx {
				items[j] = wire.MultiWriteItem{Table: table, Key: ops[i].Key, ValueLen: ops[i].ValueLen, Value: ops[i].Value}
			}
			return c.ep.StartCall(master, &wire.MultiWriteReq{Items: items})
		},
		func(resp wire.Message, idx []int, round *store.Round) {
			m, ok := resp.(*wire.MultiWriteResp)
			for j, i := range idx {
				st := wire.StatusError // as for MultiRead
				if ok && j < len(m.Items) {
					st = m.Items[j].Status
				}
				if round.Judge(i, st, true) != store.Done {
					c.stats.Retries.Inc()
					continue
				}
				out[i] = MultiResult{Version: m.Items[j].Version}
				c.record(start, c.stats.WriteLatency)
				c.stats.BatchedOps.Inc()
			}
		})
	return out
}
