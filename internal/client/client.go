// Package client implements the storage client: tablet-map caching,
// request routing, timeouts, retries and backoff. Its per-operation
// overhead constants model the YCSB Java client's own CPU cost, which
// dominates the closed-loop rate per client observed in the paper
// (~23-37 Kop/s for reads).
package client

import (
	"errors"
	"fmt"

	"ramcloud/internal/metrics"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// Client errors.
var (
	ErrNotFound    = errors.New("client: key not found")
	ErrUnavailable = errors.New("client: operation failed after retries")
	ErrNoTable     = errors.New("client: unknown table")
)

// Config tunes the client.
type Config struct {
	RPCTimeout        sim.Duration // per-attempt deadline
	RetryBackoff      sim.Duration // backoff after timeout/error
	RecoveringBackoff sim.Duration // poll interval while data recovers
	MaxRetries        int          // attempts before ErrUnavailable

	// ReadOverhead / UpdateOverhead are the client-side per-op costs
	// (request generation, serialization, bookkeeping) of the YCSB client.
	ReadOverhead   sim.Duration
	UpdateOverhead sim.Duration

	// BatchItemOverhead is the marginal client CPU per additional item in
	// a MultiRead/MultiWrite batch (the first item pays the full per-op
	// overhead). Batching amortizes request generation, which is why a
	// batched client can exceed the paper's closed-loop per-client rate.
	BatchItemOverhead sim.Duration

	// Backoff, when its Base is non-zero, replaces the fixed RetryBackoff
	// pacing with capped exponential backoff plus deterministic jitter and
	// also paces timeout retries (which legacy clients retry immediately).
	// Zero Base keeps the legacy behaviour exactly.
	Backoff BackoffConfig
}

// BackoffConfig tunes capped exponential retry backoff. Delay n is
// Base * 2^n, clamped to Cap, then jittered by a uniform factor in
// [1-JitterFrac, 1+JitterFrac] drawn from the client's private deterministic
// sequence (never the engine RNG, so enabling backoff cannot perturb any
// other random choice in the simulation).
type BackoffConfig struct {
	Base       sim.Duration
	Cap        sim.Duration
	JitterFrac float64
}

// DefaultConfig mirrors the calibrated YCSB client behaviour.
func DefaultConfig() Config {
	return Config{
		RPCTimeout:        1 * sim.Second,
		RetryBackoff:      10 * sim.Millisecond,
		RecoveringBackoff: 50 * sim.Millisecond,
		MaxRetries:        400,
		ReadOverhead:      33 * sim.Microsecond,
		UpdateOverhead:    130 * sim.Microsecond,
		BatchItemOverhead: 2 * sim.Microsecond,
	}
}

// Stats collects client-side measurements.
type Stats struct {
	ReadLatency  *metrics.Histogram // ns
	WriteLatency *metrics.Histogram // ns
	OpsBySecond  metrics.Series     // completed ops per second
	LatSumSecond metrics.Series     // summed latency (ns) per second
	LatCntSecond metrics.Series     // latency samples per second
	Timeouts     metrics.Counter
	Retries      metrics.Counter
	Failures     metrics.Counter
	Ops          metrics.Counter

	// Batch/async accounting.
	BatchRPCs  metrics.Counter // multi-op RPCs issued
	BatchedOps metrics.Counter // items completed through multi-op RPCs
	AsyncOps   metrics.Counter // operations issued through the async API
}

// NewStats returns empty stats.
func NewStats() *Stats {
	return &Stats{ReadLatency: metrics.NewHistogram(), WriteLatency: metrics.NewHistogram()}
}

// Client is one application client bound to a fabric node.
type Client struct {
	eng   *sim.Engine
	ep    *rpc.Endpoint
	coord simnet.NodeID
	cfg   Config

	tablets []wire.Tablet
	stats   *Stats

	// boState drives the backoff jitter sequence: a splitmix64 stream
	// seeded from the client's address, so jitter is deterministic per
	// client and independent of everything else.
	boState uint64
}

// New creates a client attached to the fabric at addr.
func New(e *sim.Engine, net *simnet.Network, addr simnet.NodeID, coord simnet.NodeID, cfg Config) *Client {
	return &Client{
		eng:     e,
		ep:      rpc.NewEndpoint(e, net, addr),
		coord:   coord,
		cfg:     cfg,
		stats:   NewStats(),
		boState: uint64(addr)*0x9E3779B97F4A7C15 + 1,
	}
}

// nextJitter draws the next uniform [0,1) value from the client's private
// jitter stream (splitmix64).
func (c *Client) nextJitter() float64 {
	c.boState += 0x9E3779B97F4A7C15
	z := c.boState
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// backoffDelay returns the n-th (0-based) consecutive-failure delay under
// the capped exponential policy.
func (c *Client) backoffDelay(n int) sim.Duration {
	b := c.cfg.Backoff
	d := float64(b.Base)
	for i := 0; i < n; i++ {
		d *= 2
		if b.Cap > 0 && d >= float64(b.Cap) {
			break
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.JitterFrac > 0 {
		d *= 1 + b.JitterFrac*(2*c.nextJitter()-1)
	}
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// retryPause sleeps before the next attempt: capped exponential backoff
// when configured, else the legacy fixed RetryBackoff.
func (c *Client) retryPause(p *sim.Proc, fails int) {
	if c.cfg.Backoff.Base > 0 {
		p.Sleep(c.backoffDelay(fails))
		return
	}
	p.Sleep(c.cfg.RetryBackoff)
}

// Stats returns the client's measurement sink.
func (c *Client) Stats() *Stats { return c.stats }

// Addr returns the client's fabric address.
func (c *Client) Addr() simnet.NodeID { return c.ep.Node() }

// sentRPCs returns the number of requests this client has issued on the
// fabric (data plane and tablet-map refreshes alike). Tests use it to
// assert batching actually collapses RPC counts.
func (c *Client) sentRPCs() uint64 { return c.ep.Sent() }

// CreateTable creates (or opens) a table spanning the given number of
// servers.
func (c *Client) CreateTable(p *sim.Proc, name string, serverSpan int) (uint64, error) {
	resp, ok := c.ep.CallTimeout(p, c.coord, &wire.CreateTableReq{Name: name, ServerSpan: uint32(serverSpan)}, c.cfg.RPCTimeout)
	if !ok {
		return 0, ErrUnavailable
	}
	m := resp.(*wire.CreateTableResp)
	if m.Status != wire.StatusOK {
		return 0, fmt.Errorf("client: create table: %v", m.Status)
	}
	c.refreshTablets(p)
	return m.Table, nil
}

// DropTable removes a table.
func (c *Client) DropTable(p *sim.Proc, name string) error {
	resp, ok := c.ep.CallTimeout(p, c.coord, &wire.DropTableReq{Name: name}, c.cfg.RPCTimeout)
	if !ok {
		return ErrUnavailable
	}
	if st := resp.(*wire.DropTableResp).Status; st != wire.StatusOK {
		return fmt.Errorf("client: drop table: %v", st)
	}
	return nil
}

// WarmRoutes fetches the tablet map up front. An async op issued while
// the map is cold starts no RPC until its Wait is driven, so an open-loop
// client that begins issuing against a cold map accumulates hundreds of
// RPC-less operations before the first forced reap warms the map —
// recorded as a spurious quarter-second latency band. Clients that issue
// asynchronously from the first operation warm the map explicitly instead.
func (c *Client) WarmRoutes(p *sim.Proc) { c.refreshTablets(p) }

func (c *Client) refreshTablets(p *sim.Proc) {
	resp, ok := c.ep.CallTimeout(p, c.coord, &wire.GetTabletMapReq{}, c.cfg.RPCTimeout)
	if !ok {
		return
	}
	c.tablets = resp.(*wire.GetTabletMapResp).Tablets
}

// locate returns the master for (table, keyHash).
func (c *Client) locate(table, keyHash uint64) (master simnet.NodeID, recovering, found bool) {
	if t := store.Find(c.tablets, table, keyHash); t != nil {
		return simnet.NodeID(t.Master), t.Recovering, true
	}
	return 0, false, false
}

// record registers a completed op's latency.
func (c *Client) record(start sim.Time, hist *metrics.Histogram) {
	c.recordCompleted(start, c.eng.Now(), hist)
}

// recordCompleted notes an operation that completed (its final response
// arrived) at done but is being observed now. Latency runs from issue to
// completion, so an async op reaped lazily does not accrue the reap
// delay — without this, an open-loop client's measured "latency" at low
// load is just its inter-arrival gap. The per-second series keep
// attributing to the observation instant (identical for synchronous ops,
// where done == now), preserving the established accounting of batched
// and phase-sliced runs.
func (c *Client) recordCompleted(start, done sim.Time, hist *metrics.Histogram) {
	now := c.eng.Now()
	lat := int64(done.Sub(start))
	hist.Record(lat)
	sec := int(int64(now) / int64(sim.Second))
	c.stats.OpsBySecond.Add(sec, 1)
	c.stats.LatSumSecond.Add(sec, float64(lat))
	c.stats.LatCntSecond.Add(sec, 1)
	c.stats.Ops.Inc()
}

// Read fetches a value's declared length (and bytes when real payloads are
// in use). It retries through recoveries and server changes; the recorded
// latency covers the whole operation, retries included.
func (c *Client) Read(p *sim.Proc, table uint64, key []byte) (uint32, []byte, error) {
	var o Op
	c.initOp(p, &o, opRead, table, key, 0, nil, c.cfg.ReadOverhead)
	return o.Wait(p)
}

// Write stores a value (virtual when value is nil: only valueLen crosses
// the simulated wire).
func (c *Client) Write(p *sim.Proc, table uint64, key []byte, valueLen uint32, value []byte) error {
	var o Op
	c.initOp(p, &o, opWrite, table, key, valueLen, value, c.cfg.UpdateOverhead)
	_, _, err := o.Wait(p)
	return err
}

// Delete removes a key.
func (c *Client) Delete(p *sim.Proc, table uint64, key []byte) error {
	var o Op
	c.initOp(p, &o, opDelete, table, key, 0, nil, c.cfg.UpdateOverhead)
	_, _, err := o.Wait(p)
	return err
}
