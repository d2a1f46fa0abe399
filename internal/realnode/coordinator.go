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
// deadlines, pipelined attempts — is this package's own, and the
// coordinator's connections, pinger and ownership pushes.
//
// The coordinator keeps membership, tables and the tablet map in a
// store.Membership, the simulated coordinator's state machine: a death
// splits the dead master's tablets into partitions across the survivors,
// as the simulator's recovery does. No master replicates to a backup yet
// (the replication rules the simulated master follows are store.Replicas,
// for this master to take up), so there is nothing to replay: each
// partition flips to its recovery master at once, and the objects the
// dead master stored are LOST (reads return not-found until rewritten).
// A master that restarts at its address keeps its id and is sent what it
// owns when it enlists. Durability modeling stays in the simulated path,
// where the paper's figures live.
//
// Like internal/transport, this package legitimately uses wall-clock
// time, bare goroutines and map iteration; rcvet's determinism analyzers
// exempt it by package scope (internal/analysis/scope).
package realnode

import (
	"slices"
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

// pushTimeout bounds one ownership push to a master.
const pushTimeout = time.Second

// coordServer is how the coordinator reaches one enlisted master.
type coordServer struct {
	addr string
	conn transport.Conn
}

// Coordinator is the real-transport cluster coordinator. Its membership,
// tables and tablet map are a store.Membership, the simulated
// coordinator's; it adds the locking, the connections to the masters, the
// pinger and the ownership pushes.
type Coordinator struct {
	tr  transport.Interface
	cfg CoordConfig
	ln  transport.Listener

	mu      sync.Mutex
	m       *store.Membership
	servers map[int32]*coordServer
	byAddr  map[string]int32
	nextID  int32

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator creates a coordinator (not yet listening).
func NewCoordinator(tr transport.Interface, cfg CoordConfig) *Coordinator {
	return &Coordinator{
		tr:      tr,
		cfg:     cfg,
		m:       store.NewMembership(cfg.missThreshold()),
		servers: make(map[int32]*coordServer),
		byAddr:  make(map[string]int32),
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

// serveEnlist registers (or readmits) a master by its dial address. An
// address that re-enlists keeps its server id, so a restarted process is
// the same logical server with an empty store. Before the answer, the
// process is sent what the map says that id owns (nothing, unless it came
// back before the detector declared it dead): a map that routes ranges to
// a process that does not know it owns them answers WrongServer forever.
func (c *Coordinator) serveEnlist(m *wire.EnlistAddrReq) wire.Message {
	c.mu.Lock()
	id, ok := c.byAddr[m.Addr]
	if !ok {
		c.nextID++
		id = c.nextID
		c.byAddr[m.Addr] = id
		c.servers[id] = &coordServer{addr: m.Addr}
	}
	c.m.Enlist(id)
	c.dropConnLocked(id) // the old process's, if any
	c.mu.Unlock()
	c.pushAssignment(id)
	return &wire.EnlistAddrResp{Status: wire.StatusOK, ServerID: id}
}

func (c *Coordinator) serveServerList() wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := &wire.ServerListResp{Status: wire.StatusOK}
	for _, id := range c.m.Alive() {
		resp.Servers = append(resp.Servers, wire.ServerAddr{ID: id, Addr: c.servers[id].addr})
	}
	return resp
}

func (c *Coordinator) serveTabletMap() wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: c.m.Tablets()}
}

// serveCreateTable pushes each owner's full assignment before replying, so
// a client that reads the map immediately afterward routes to servers that
// already own their ranges.
func (c *Coordinator) serveCreateTable(m *wire.CreateTableReq) wire.Message {
	c.mu.Lock()
	id, created, ok := c.m.CreateTable(m.Name, int(m.ServerSpan))
	c.mu.Unlock()
	if !ok {
		return &wire.CreateTableResp{Status: wire.StatusRetry}
	}
	for _, owner := range owners(created) {
		c.pushAssignment(owner)
	}
	return &wire.CreateTableResp{Status: wire.StatusOK, Table: id}
}

func (c *Coordinator) serveDropTable(m *wire.DropTableReq) wire.Message {
	c.mu.Lock()
	_, ok := c.m.DropTable(m.Name)
	alive := c.m.Alive()
	c.mu.Unlock()
	if !ok {
		return &wire.DropTableResp{Status: wire.StatusUnknownTable}
	}
	for _, id := range alive {
		c.pushAssignment(id)
	}
	return &wire.DropTableResp{Status: wire.StatusOK}
}

// owners returns the masters of tablets, ascending, each once.
func owners(tablets []wire.Tablet) []int32 {
	var out []int32
	for _, t := range tablets {
		out = append(out, t.Master)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// pushAssignment sends a server its complete current ownership
// (replace-all semantics, so a duplicate or stale push is idempotent).
func (c *Coordinator) pushAssignment(id int32) {
	c.mu.Lock()
	if !c.m.IsAlive(id) {
		c.mu.Unlock()
		return
	}
	req := &wire.AssignTabletsReq{Tablets: c.m.Owned(id)}
	conn, err := c.connLocked(id)
	c.mu.Unlock()
	if err != nil {
		return // pinger will retry via miss accounting
	}
	ctx := newDeadline(pushTimeout)
	defer ctx.release()
	_, _ = conn.Call(ctx, req) // best-effort: a miss shows up as WrongServer and a later re-push
}

// connLocked returns (dialing lazily) the coordinator's connection to id.
func (c *Coordinator) connLocked(id int32) (transport.Conn, error) {
	s := c.servers[id]
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

// dropConnLocked closes the coordinator's connection to id, if open.
func (c *Coordinator) dropConnLocked(id int32) {
	if s := c.servers[id]; s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// pinger probes every alive server each interval; MissThreshold
// consecutive failures declare it dead and fail it over.
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
		targets := c.m.Alive()
		c.mu.Unlock()

		for _, id := range targets {
			c.mu.Lock()
			conn, err := c.connLocked(id)
			c.mu.Unlock()
			if err == nil {
				ctx := newDeadline(c.cfg.pingInterval())
				_, err = conn.Call(ctx, &wire.PingReq{Seq: seq})
				ctx.release()
			}
			var moved []int32
			c.mu.Lock()
			if c.m.Pinged(id, err == nil) {
				moved = c.failoverLocked(id)
			}
			c.mu.Unlock()
			for _, owner := range moved {
				c.pushAssignment(owner)
			}
		}
	}
}

// failoverLocked declares id dead and runs its recovery with nothing to
// replay, the simulator's recovery less the replay: the partitions get
// their recovery masters and each flips at once, under c.mu, so no client
// ever sees a Recovering tablet. The dead server's objects are gone (see
// the package comment). It returns the masters whose ownership changed.
// Caller holds c.mu.
func (c *Coordinator) failoverLocked(id int32) []int32 {
	c.dropConnLocked(id)
	// No recovery stays open here, so no partition waits on the dead
	// server and none restarts.
	rec, _ := c.m.DeclareDead(id)
	if rec == nil || !c.m.Assign(rec) {
		return nil
	}
	var flipped []wire.Tablet
	for _, p := range rec.Partitions {
		_, ts := c.m.Recovered(id, p.Range.FirstHash, true)
		flipped = append(flipped, ts...)
	}
	c.m.Close(rec)
	return owners(flipped)
}

// Servers returns the ids of currently-alive servers (for tests and the
// rccoord status loop).
func (c *Coordinator) Servers() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Alive()
}
