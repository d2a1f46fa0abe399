package realnode

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// Client errors.
var (
	// ErrNotFound reports a key with no live object (including keys lost
	// to an unrecovered server failure — see the package comment).
	ErrNotFound = errors.New("realnode: key not found")
	// ErrUnavailable reports an operation that exhausted its retries.
	ErrUnavailable = errors.New("realnode: operation failed after retries")
	// ErrNoTable reports a key no tablet covers, even after a refresh.
	ErrNoTable = errors.New("realnode: unknown table")
)

// ClientConfig tunes the real client.
type ClientConfig struct {
	// RPCTimeout is the per-attempt deadline. Default 1s.
	RPCTimeout time.Duration
	// MaxRetries is the attempt budget per operation. Default 60.
	MaxRetries int
	// RetryBase/RetryCap bound the capped exponential backoff between
	// attempts. Defaults 5ms / 500ms.
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (c ClientConfig) rpcTimeout() time.Duration {
	if c.RPCTimeout > 0 {
		return c.RPCTimeout
	}
	return time.Second
}

func (c ClientConfig) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 60
}

func (c ClientConfig) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 5 * time.Millisecond
}

func (c ClientConfig) retryCap() time.Duration {
	if c.RetryCap > 0 {
		return c.RetryCap
	}
	return 500 * time.Millisecond
}

// ClientStats counts operation outcomes; all fields are atomic.
type ClientStats struct {
	Ops       atomic.Uint64 // completed (success or ErrNotFound)
	Retries   atomic.Uint64 // extra attempts beyond the first
	Refreshes atomic.Uint64 // tablet-map refreshes
	Failures  atomic.Uint64 // ErrUnavailable results
}

// Client is the real-transport storage client: it caches the tablet map
// and server list from the coordinator, routes by key hash, and retries
// through server failures and ownership moves by the rules the simulated
// client follows (store.Judge, store.Group). Safe for concurrent use.
type Client struct {
	tr        transport.Interface
	cfg       ClientConfig
	coordAddr string

	mu      sync.Mutex
	coord   transport.Conn
	conns   map[int32]conn
	addrs   map[int32]string
	tablets []wire.Tablet

	stats ClientStats
}

// conn is a connection to a master. A data-plane attempt is either called
// or started pipelined on it, so the client requires a transport.Starter
// of every connection it dials to a master.
type conn interface {
	transport.Conn
	transport.Starter
}

// NewClient creates a client for the cluster at coordAddr.
func NewClient(tr transport.Interface, coordAddr string, cfg ClientConfig) *Client {
	return &Client{
		tr:        tr,
		cfg:       cfg,
		coordAddr: coordAddr,
		conns:     make(map[int32]conn),
		addrs:     make(map[int32]string),
	}
}

// Stats returns the client's counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// Close releases every connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord != nil {
		c.coord.Close()
		c.coord = nil
	}
	for id, conn := range c.conns {
		conn.Close()
		delete(c.conns, id)
	}
}

func (c *Client) coordConn() (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil {
		conn, err := c.tr.Dial(c.coordAddr)
		if err != nil {
			return nil, err
		}
		c.coord = conn
	}
	return c.coord, nil
}

func (c *Client) callCoord(req wire.Message) (wire.Message, error) {
	conn, err := c.coordConn()
	if err != nil {
		return nil, err
	}
	ctx := newDeadline(c.cfg.rpcTimeout())
	defer ctx.release()
	return conn.Call(ctx, req)
}

// CreateTable creates (or opens) a table spanning serverSpan masters and
// refreshes the local map.
func (c *Client) CreateTable(name string, serverSpan int) (uint64, error) {
	for attempt := 0; attempt <= c.cfg.maxRetries(); attempt++ {
		resp, err := c.callCoord(&wire.CreateTableReq{Name: name, ServerSpan: uint32(serverSpan)})
		if err == nil {
			m, ok := resp.(*wire.CreateTableResp)
			if ok && m.Status == wire.StatusOK {
				c.Refresh()
				return m.Table, nil
			}
			if !ok {
				return 0, fmt.Errorf("realnode: create table: unexpected %#v", resp)
			}
		}
		time.Sleep(c.backoff(attempt))
	}
	return 0, ErrUnavailable
}

// Refresh re-fetches the tablet map and the server address list.
func (c *Client) Refresh() {
	c.stats.Refreshes.Add(1)
	tm, err1 := c.callCoord(&wire.GetTabletMapReq{})
	sl, err2 := c.callCoord(&wire.ServerListReq{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err1 == nil {
		if m, ok := tm.(*wire.GetTabletMapResp); ok && m.Status == wire.StatusOK {
			c.tablets = m.Tablets
		}
	}
	if err2 == nil {
		if m, ok := sl.(*wire.ServerListResp); ok && m.Status == wire.StatusOK {
			fresh := make(map[int32]string, len(m.Servers))
			for _, s := range m.Servers {
				fresh[s.ID] = s.Addr
			}
			// Drop connections to servers that left the list or moved.
			for id, conn := range c.conns {
				if addr, ok := fresh[id]; !ok || addr != c.addrs[id] {
					conn.Close()
					delete(c.conns, id)
				}
			}
			c.addrs = fresh
		}
	}
}

// tabletSnapshot returns the cached tablet map for lock-free lookups.
// Refresh replaces the slice and never edits it in place, so the snapshot
// stays consistent (and merely goes stale) after c.mu is released.
func (c *Client) tabletSnapshot() []wire.Tablet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tablets
}

// route finds the tablet covering (table, keyHash) in the cached map (nil
// when none does) and the connection to its master: the tablet lookup and
// the connection lookup under one lock acquisition.
func (c *Client) route(table, keyHash uint64) (*wire.Tablet, conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := store.Find(c.tablets, table, keyHash)
	if t == nil {
		return nil, nil, nil
	}
	cn, err := c.serverConnLocked(t.Master)
	return t, cn, err
}

// serverConn returns (dialing lazily) the connection to server id.
func (c *Client) serverConn(id int32) (conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverConnLocked(id)
}

func (c *Client) serverConnLocked(id int32) (conn, error) {
	if cn, ok := c.conns[id]; ok {
		return cn, nil
	}
	addr, ok := c.addrs[id]
	if !ok {
		return nil, fmt.Errorf("realnode: no address for server %d", id)
	}
	raw, err := c.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	cn, ok := raw.(conn)
	if !ok {
		raw.Close()
		return nil, fmt.Errorf("realnode: a %T cannot pipeline (no transport.Starter)", raw)
	}
	c.conns[id] = cn
	return cn, nil
}

// backoff returns the n-th consecutive pause (capped exponential).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.retryBase() << n
	if limit := c.cfg.retryCap(); d > limit || d <= 0 {
		d = limit
	}
	return d
}

// opKind selects what an op does.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opDelete
)

// op is one single-key operation: what run retries and a Future carries.
type op struct {
	kind    opKind
	table   uint64
	key     []byte
	value   []byte // writes only
	keyHash uint64
}

func newOp(kind opKind, table uint64, key, value []byte) op {
	return op{kind: kind, table: table, key: key, value: value, keyHash: hashtable.HashKey(table, key)}
}

// request builds one attempt's message.
func (o *op) request() wire.Message {
	switch o.kind {
	case opRead:
		return &wire.ReadReq{Table: o.table, Key: o.key}
	case opWrite:
		return &wire.WriteReq{Table: o.table, Key: o.key, ValueLen: uint32(len(o.value)), Value: o.value}
	default:
		return &wire.DeleteReq{Table: o.table, Key: o.key}
	}
}

// reply reads a single-key response: its status, the value of a read and
// the version. Any other message is an error, which backs off.
func reply(resp wire.Message) (wire.Status, []byte, uint64) {
	switch m := resp.(type) {
	case *wire.ReadResp:
		return m.Status, m.Value, m.Version
	case *wire.WriteResp:
		return m.Status, nil, m.Version
	case *wire.DeleteResp:
		return m.Status, nil, m.Version
	default:
		return wire.StatusError, nil, 0
	}
}

// run drives o until a verdict ends it, deciding as the simulated client's
// Op.Wait does: store.Judge reads each status, a key no tablet covers
// fails with ErrNoTable after one refresh, and a recovering tablet is
// polled. first, when not nil, resolves attempt zero, which a Future
// already has in flight; every other attempt is a blocking call. The
// waiting is this client's own: a Backoff pauses, and so does a lost RPC,
// because a refused dial fails at once where a simulated timeout has
// already waited out RPCTimeout; a Reroute retries at once.
func (c *Client) run(o *op, first func() (wire.Message, error)) ([]byte, uint64, error) {
	fails := 0 // consecutive pauses; a Reroute is progress and resets it
	var lastErr error
	for attempt := 0; attempt <= c.cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(1)
		}
		var (
			resp wire.Message
			err  error
		)
		if attempt == 0 && first != nil {
			resp, err = first()
		} else {
			var t *wire.Tablet
			var cn conn
			t, cn, err = c.route(o.table, o.keyHash)
			switch {
			case t == nil:
				c.Refresh()
				if store.Find(c.tabletSnapshot(), o.table, o.keyHash) == nil {
					return nil, 0, ErrNoTable
				}
				continue
			case t.Recovering:
				time.Sleep(c.backoff(fails))
				fails++
				c.Refresh()
				continue
			case err == nil:
				ctx := newDeadline(c.cfg.rpcTimeout())
				resp, err = cn.Call(ctx, o.request())
				ctx.release()
			}
		}
		if err != nil {
			// Connection lost, dial refused, deadline: the owner may be
			// gone. Pause, then route on a fresh map.
			lastErr = err
			time.Sleep(c.backoff(fails))
			fails++
			c.Refresh()
			continue
		}
		st, value, version := reply(resp)
		switch store.Judge(st, o.kind == opWrite) {
		case store.Done:
			c.stats.Ops.Add(1)
			return value, version, nil
		case store.NotFound:
			c.stats.Ops.Add(1)
			return nil, 0, ErrNotFound
		case store.Reroute:
			c.Refresh()
			fails = 0
		default:
			time.Sleep(c.backoff(fails))
			fails++
		}
		lastErr = fmt.Errorf("realnode: status %v", st)
	}
	c.stats.Failures.Add(1)
	if lastErr != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
	}
	return nil, 0, ErrUnavailable
}

// Get fetches a value.
func (c *Client) Get(table uint64, key []byte) ([]byte, uint64, error) {
	o := newOp(opRead, table, key, nil)
	return c.run(&o, nil)
}

// Put stores value under key. Real transports carry real bytes: value
// must be the actual payload, not a declared length.
func (c *Client) Put(table uint64, key, value []byte) (uint64, error) {
	o := newOp(opWrite, table, key, value)
	_, version, err := c.run(&o, nil)
	return version, err
}

// Delete removes key. Deleting an absent key returns ErrNotFound.
func (c *Client) Delete(table uint64, key []byte) error {
	o := newOp(opDelete, table, key, nil)
	_, _, err := c.run(&o, nil)
	return err
}
