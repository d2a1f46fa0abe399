// Package realnode hosts the storage system on a real transport: a
// coordinator, servers and a client that speak the same wire protocol as
// the simulated cluster but run as ordinary goroutine-based services over
// transport.Interface (normally transport.TCP), so the system boots as a
// multi-process localhost cluster via cmd/rccoord, cmd/rcserver and
// cmd/rcclient. A server's master and its backup both serve from
// internal/store, the very rules the simulated server serves by
// (store.Store and store.Backups), and the client decides by the store's
// client rules (store.Judge, store.Group) as the simulated client does:
// only the locking and waiting — mutexes, wall-clock pauses, pooled
// deadlines, pipelined attempts — is this package's own. So is the
// coordinator.
//
// No master replicates to a backup yet, and there is no crash recovery:
// when the coordinator declares a master dead it reassigns the dead
// server's tablets to survivors and the objects stored there are LOST
// (reads return not-found until rewritten). Durability modeling stays in
// the simulated path, where the paper's figures live.
//
// Like internal/transport, this package legitimately uses wall-clock
// time, bare goroutines and map iteration; rcvet's determinism analyzers
// exempt it by package scope (internal/analysis/scope).
package realnode

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// CoordConfig tunes the real coordinator.
type CoordConfig struct {
	// PingInterval is the liveness probe period. Default 500ms.
	PingInterval time.Duration
	// MissThreshold is how many consecutive failed pings declare a
	// server dead. Default 3.
	MissThreshold int
	// RPCTimeout bounds each control-plane call. Default 1s.
	RPCTimeout time.Duration
}

func (c CoordConfig) pingInterval() time.Duration {
	if c.PingInterval > 0 {
		return c.PingInterval
	}
	return 500 * time.Millisecond
}

func (c CoordConfig) missThreshold() int {
	if c.MissThreshold > 0 {
		return c.MissThreshold
	}
	return 3
}

func (c CoordConfig) rpcTimeout() time.Duration {
	if c.RPCTimeout > 0 {
		return c.RPCTimeout
	}
	return time.Second
}

type coordServer struct {
	id     int32
	addr   string
	alive  bool
	missed int
	conn   transport.Conn
}

// Coordinator is the real-transport cluster coordinator: enlistment,
// table creation with hash-range splitting, the tablet map, and
// ping-based failure detection with tablet reassignment.
type Coordinator struct {
	tr  transport.Interface
	cfg CoordConfig
	ln  transport.Listener

	mu          sync.Mutex
	servers     map[int32]*coordServer
	byAddr      map[string]int32
	tables      map[string]uint64
	tablets     map[uint64][]wire.Tablet
	nextID      int32
	nextTableID uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator creates a coordinator (not yet listening).
func NewCoordinator(tr transport.Interface, cfg CoordConfig) *Coordinator {
	return &Coordinator{
		tr:      tr,
		cfg:     cfg,
		servers: make(map[int32]*coordServer),
		byAddr:  make(map[string]int32),
		tables:  make(map[string]uint64),
		tablets: make(map[uint64][]wire.Tablet),
		stop:    make(chan struct{}),
	}
}

// Start binds addr and begins serving and probing.
func (c *Coordinator) Start(addr string) error {
	ln, err := c.tr.Listen(addr, transport.HandlerFunc(c.serve))
	if err != nil {
		return err
	}
	c.ln = ln
	c.wg.Add(1)
	go c.pinger()
	return nil
}

// Addr returns the bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr() }

// Stop shuts the coordinator down.
func (c *Coordinator) Stop() {
	close(c.stop)
	c.ln.Close()
	c.wg.Wait()
	c.mu.Lock()
	for _, s := range c.servers {
		if s.conn != nil {
			s.conn.Close()
		}
	}
	c.mu.Unlock()
}

func (c *Coordinator) serve(remote string, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.EnlistAddrReq:
		return c.serveEnlist(m)
	case *wire.ServerListReq:
		return c.serveServerList()
	case *wire.GetTabletMapReq:
		return c.serveTabletMap()
	case *wire.CreateTableReq:
		return c.serveCreateTable(m)
	case *wire.DropTableReq:
		return c.serveDropTable(m)
	case *wire.PingReq:
		return &wire.PingResp{Seq: m.Seq}
	default:
		return nil // unknown request: drop, peer times out
	}
}

// serveEnlist registers (or re-registers) a master by its dial address.
// An address that re-enlists keeps its server id, so a restarted process
// is the same logical server with an empty store.
func (c *Coordinator) serveEnlist(m *wire.EnlistAddrReq) wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.byAddr[m.Addr]
	if !ok {
		c.nextID++
		id = c.nextID
		c.byAddr[m.Addr] = id
		c.servers[id] = &coordServer{id: id, addr: m.Addr}
	}
	s := c.servers[id]
	s.alive = true
	s.missed = 0
	return &wire.EnlistAddrResp{Status: wire.StatusOK, ServerID: id}
}

func (c *Coordinator) serveServerList() wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := &wire.ServerListResp{Status: wire.StatusOK}
	for id, s := range c.servers {
		if s.alive {
			resp.Servers = append(resp.Servers, wire.ServerAddr{ID: id, Addr: s.addr})
		}
	}
	sort.Slice(resp.Servers, func(i, j int) bool { return resp.Servers[i].ID < resp.Servers[j].ID })
	return resp
}

func (c *Coordinator) serveTabletMap() wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := &wire.GetTabletMapResp{Status: wire.StatusOK}
	ids := make([]uint64, 0, len(c.tablets))
	for id := range c.tablets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		resp.Tablets = append(resp.Tablets, c.tablets[id]...)
	}
	return resp
}

// serveCreateTable splits the hash space into span uniform ranges and
// assigns them round-robin over alive servers — the same layout the
// simulated coordinator produces — then pushes each owner's full
// assignment before replying, so a client that reads the map immediately
// afterward routes to servers that already own their ranges.
func (c *Coordinator) serveCreateTable(m *wire.CreateTableReq) wire.Message {
	c.mu.Lock()
	if id, exists := c.tables[m.Name]; exists {
		c.mu.Unlock()
		return &wire.CreateTableResp{Status: wire.StatusOK, Table: id}
	}
	alive := c.aliveLocked()
	if len(alive) == 0 {
		c.mu.Unlock()
		return &wire.CreateTableResp{Status: wire.StatusRetry}
	}
	span := int(m.ServerSpan)
	if span <= 0 || span > len(alive) {
		span = len(alive)
	}
	c.nextTableID++
	id := c.nextTableID
	c.tables[m.Name] = id
	tablets := store.SplitHashSpace(id, span, alive)
	c.tablets[id] = tablets
	owners := ownersOf(tablets)
	c.mu.Unlock()

	for _, owner := range owners {
		c.pushAssignment(owner)
	}
	return &wire.CreateTableResp{Status: wire.StatusOK, Table: id}
}

func (c *Coordinator) serveDropTable(m *wire.DropTableReq) wire.Message {
	c.mu.Lock()
	id, ok := c.tables[m.Name]
	if !ok {
		c.mu.Unlock()
		return &wire.DropTableResp{Status: wire.StatusUnknownTable}
	}
	delete(c.tables, m.Name)
	delete(c.tablets, id)
	owners := c.allOwnersLocked()
	c.mu.Unlock()
	for _, owner := range owners {
		c.pushAssignment(owner)
	}
	return &wire.DropTableResp{Status: wire.StatusOK}
}

func (c *Coordinator) aliveLocked() []int32 {
	var ids []int32
	for id, s := range c.servers {
		if s.alive {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func ownersOf(tablets []wire.Tablet) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, t := range tablets {
		if !seen[t.Master] {
			seen[t.Master] = true
			out = append(out, t.Master)
		}
	}
	return out
}

func (c *Coordinator) allOwnersLocked() []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, tablets := range c.tablets {
		for _, t := range tablets {
			if !seen[t.Master] {
				seen[t.Master] = true
				out = append(out, t.Master)
			}
		}
	}
	return out
}

// pushAssignment sends a server its complete current ownership
// (replace-all semantics, so a duplicate or stale push is idempotent).
func (c *Coordinator) pushAssignment(owner int32) {
	c.mu.Lock()
	s, ok := c.servers[owner]
	if !ok || !s.alive {
		c.mu.Unlock()
		return
	}
	req := &wire.AssignTabletsReq{}
	for _, tablets := range c.tablets {
		for _, t := range tablets {
			if t.Master == owner {
				req.Tablets = append(req.Tablets, t)
			}
		}
	}
	sort.Slice(req.Tablets, func(i, j int) bool {
		a, b := req.Tablets[i], req.Tablets[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.StartHash < b.StartHash
	})
	conn, err := c.connLocked(s)
	c.mu.Unlock()
	if err != nil {
		return // pinger will retry via miss accounting
	}
	ctx := newDeadline(c.cfg.rpcTimeout())
	defer ctx.release()
	_, _ = conn.Call(ctx, req) // best-effort: a miss shows up as WrongServer and a later re-push
}

// connLocked returns (dialing lazily) the coordinator's connection to s.
func (c *Coordinator) connLocked(s *coordServer) (transport.Conn, error) {
	if s.conn != nil {
		return s.conn, nil
	}
	conn, err := c.tr.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	s.conn = conn
	return conn, nil
}

// pinger probes every alive server each interval; MissThreshold
// consecutive failures declare it dead and trigger reassignment.
func (c *Coordinator) pinger() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.pingInterval())
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		seq++
		c.mu.Lock()
		targets := make([]*coordServer, 0, len(c.servers))
		for _, s := range c.servers {
			if s.alive {
				targets = append(targets, s)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
		c.mu.Unlock()

		for _, s := range targets {
			c.mu.Lock()
			conn, err := c.connLocked(s)
			c.mu.Unlock()
			var dead bool
			if err != nil {
				dead = c.miss(s)
			} else {
				ctx := newDeadline(c.cfg.pingInterval())
				_, err = conn.Call(ctx, &wire.PingReq{Seq: seq})
				ctx.release()
				if err != nil {
					dead = c.miss(s)
				} else {
					c.mu.Lock()
					s.missed = 0
					c.mu.Unlock()
				}
			}
			if dead {
				c.declareDead(s.id)
			}
		}
	}
}

// miss records one failed probe; true once the threshold is crossed.
func (c *Coordinator) miss(s *coordServer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.missed++
	return s.missed >= c.cfg.missThreshold() && s.alive
}

// declareDead reassigns every tablet owned by id to the surviving
// servers round-robin and pushes the updated ownership. The dead
// server's objects are gone: this is failover without recovery, by
// design (see the package comment).
func (c *Coordinator) declareDead(id int32) {
	c.mu.Lock()
	s, ok := c.servers[id]
	if !ok || !s.alive {
		c.mu.Unlock()
		return
	}
	s.alive = false
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	alive := c.aliveLocked()
	touched := make(map[int32]bool)
	if len(alive) > 0 {
		i := 0
		tids := make([]uint64, 0, len(c.tablets))
		for tid := range c.tablets {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
		for _, tid := range tids {
			tablets := c.tablets[tid]
			for j := range tablets {
				if tablets[j].Master == id {
					tablets[j].Master = alive[i%len(alive)]
					touched[tablets[j].Master] = true
					i++
				}
			}
		}
	}
	owners := make([]int32, 0, len(touched))
	for o := range touched {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	c.mu.Unlock()

	for _, o := range owners {
		c.pushAssignment(o)
	}
}

// Servers returns the ids of currently-alive servers (for tests and the
// rccoord status loop).
func (c *Coordinator) Servers() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked()
}

// String summarizes the coordinator state for logs.
func (c *Coordinator) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("coordinator{servers=%d tables=%d}", len(c.aliveLocked()), len(c.tables))
}
