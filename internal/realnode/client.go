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
// with capped backoff through server failures and ownership moves. Safe
// for concurrent use.
type Client struct {
	tr        transport.Interface
	cfg       ClientConfig
	coordAddr string

	mu      sync.Mutex
	coord   transport.Conn
	conns   map[int32]transport.Conn
	addrs   map[int32]string
	tablets []wire.Tablet

	stats ClientStats
}

// NewClient creates a client for the cluster at coordAddr.
func NewClient(tr transport.Interface, coordAddr string, cfg ClientConfig) *Client {
	return &Client{
		tr:        tr,
		cfg:       cfg,
		coordAddr: coordAddr,
		conns:     make(map[int32]transport.Conn),
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

// route returns the connection to the owner of (table, keyHash): the
// tablet lookup and the connection lookup under one lock acquisition.
func (c *Client) route(table, keyHash uint64) (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := store.Find(c.tablets, table, keyHash)
	if t == nil {
		return nil, fmt.Errorf("realnode: no tablet for table %d", table)
	}
	return c.serverConnLocked(t.Master)
}

// serverConn returns (dialing lazily) the connection to server id.
func (c *Client) serverConn(id int32) (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverConnLocked(id)
}

func (c *Client) serverConnLocked(id int32) (transport.Conn, error) {
	if conn, ok := c.conns[id]; ok {
		return conn, nil
	}
	addr, ok := c.addrs[id]
	if !ok {
		return nil, fmt.Errorf("realnode: no address for server %d", id)
	}
	conn, err := c.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[id] = conn
	return conn, nil
}

// backoff returns the pause before attempt n+1 (capped exponential).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.retryBase() << n
	if limit := c.cfg.retryCap(); d > limit || d <= 0 {
		d = limit
	}
	return d
}

// classify maps a data-plane response (or transport error) onto the
// (response, status, error) triple the retry loop interprets.
func classify(resp wire.Message, err error) (wire.Message, wire.Status, error) {
	if err != nil {
		return nil, 0, err
	}
	switch m := resp.(type) {
	case *wire.ReadResp:
		return m, m.Status, nil
	case *wire.WriteResp:
		return m, m.Status, nil
	case *wire.DeleteResp:
		return m, m.Status, nil
	default:
		return nil, 0, fmt.Errorf("realnode: unexpected response %#v", resp)
	}
}

// call routes one data-plane request to the owner of (table, key) and
// returns the response status plus the response itself. It performs ONE
// attempt; op drives the retry loop.
func (c *Client) call(table uint64, key []byte, mk func() wire.Message) (wire.Message, wire.Status, error) {
	conn, err := c.route(table, hashtable.HashKey(table, key))
	if err != nil {
		return nil, 0, err
	}
	ctx := newDeadline(c.cfg.rpcTimeout())
	defer ctx.release()
	resp, err := conn.Call(ctx, mk())
	return classify(resp, err)
}

// op runs the shared retry loop: transport errors and retryable statuses
// refresh the map and back off; OK and UnknownKey terminate. The
// semantics mirror the simulated client's operation core.
func (c *Client) op(table uint64, key []byte, mk func() wire.Message) (wire.Message, error) {
	return c.opResume(table, key, mk, nil)
}

// opResume is op with a pluggable first attempt: an async operation's
// already-issued RPC resolves as attempt zero (via first), and only the
// uncommon retry path falls back to synchronous attempts. first may be
// nil for a fully synchronous operation.
func (c *Client) opResume(table uint64, key []byte, mk func() wire.Message, first func() (wire.Message, wire.Status, error)) (wire.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(1)
			time.Sleep(c.backoff(attempt - 1))
		}
		var (
			resp   wire.Message
			status wire.Status
			err    error
		)
		if attempt == 0 && first != nil {
			resp, status, err = first()
		} else {
			resp, status, err = c.call(table, key, mk)
		}
		if err != nil {
			// Connection lost, dial refused, deadline: the server may be
			// gone — refresh routes and retry.
			lastErr = err
			c.Refresh()
			continue
		}
		switch status {
		case wire.StatusOK:
			c.stats.Ops.Add(1)
			return resp, nil
		case wire.StatusUnknownKey:
			c.stats.Ops.Add(1)
			return resp, ErrNotFound
		case wire.StatusWrongServer:
			lastErr = fmt.Errorf("realnode: wrong server")
			c.Refresh()
		case wire.StatusRetry, wire.StatusRecovering:
			lastErr = fmt.Errorf("realnode: server busy")
		default:
			lastErr = fmt.Errorf("realnode: status %v", status)
			c.Refresh()
		}
	}
	c.stats.Failures.Add(1)
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
	}
	return nil, ErrUnavailable
}

// Get fetches a value.
func (c *Client) Get(table uint64, key []byte) ([]byte, uint64, error) {
	resp, err := c.op(table, key, func() wire.Message {
		return &wire.ReadReq{Table: table, Key: key}
	})
	if err != nil {
		return nil, 0, err
	}
	m := resp.(*wire.ReadResp)
	return m.Value, m.Version, nil
}

// Put stores value under key. Real transports carry real bytes: value
// must be the actual payload, not a declared length.
func (c *Client) Put(table uint64, key, value []byte) (uint64, error) {
	resp, err := c.op(table, key, func() wire.Message {
		return &wire.WriteReq{Table: table, Key: key, ValueLen: uint32(len(value)), Value: value}
	})
	if err != nil {
		return 0, err
	}
	return resp.(*wire.WriteResp).Version, nil
}

// Delete removes key. Deleting an absent key returns ErrNotFound.
func (c *Client) Delete(table uint64, key []byte) error {
	_, err := c.op(table, key, func() wire.Message {
		return &wire.DeleteReq{Table: table, Key: key}
	})
	return err
}
