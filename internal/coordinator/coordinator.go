// Package coordinator implements the RAMCloud coordinator: cluster
// membership, the table/tablet map, wills, ping-based failure detection
// and crash-recovery orchestration.
//
// The coordinator runs on its own node, which — like in the paper's
// deployment — is not power-metered (the 40 PDU-equipped nodes run only
// masters/backups).
package coordinator

import (
	"fmt"
	"sort"

	"ramcloud/internal/rpc"
	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// Config tunes the failure detector and recovery.
type Config struct {
	PingInterval  sim.Duration // gap between probes to one server
	PingTimeout   sim.Duration // per-probe response deadline
	MissThreshold int          // consecutive misses before declaring death

	// EnforceDeath kills a server the moment it is declared dead, even if
	// the declaration was a false positive (a live server that missed
	// pings while overloaded). False means the legacy behaviour: the
	// declaration is recorded and recovery runs, but a live "dead" server
	// keeps serving. Chaos profiles enable enforcement so a trigger-happy
	// detector has a visible cost instead of a silent split-brain.
	EnforceDeath bool
}

// DefaultConfig returns a detector that declares death within ~1 second.
func DefaultConfig() Config {
	return Config{
		PingInterval:  200 * sim.Millisecond,
		PingTimeout:   150 * sim.Millisecond,
		MissThreshold: 3,
	}
}

type serverInfo struct {
	id     int32
	addr   simnet.NodeID
	alive  bool
	misses int
	will   []wire.WillPartition
}

type partitionState struct {
	rng    wire.WillPartition
	master int32 // recovery master
	done   bool
	ok     bool
}

type recoveryState struct {
	crashed    int32
	partitions []*partitionState
	pending    int
	detectedAt sim.Time
	locs       []wire.SegmentLoc // where the lost segments live
}

// RecoveryRecord summarizes one completed crash recovery.
type RecoveryRecord struct {
	Crashed    int32
	DetectedAt sim.Time
	DoneAt     sim.Time
	Partitions int
	AllOK      bool
}

// Coordinator is the cluster's configuration and recovery manager.
type Coordinator struct {
	eng *sim.Engine
	net *simnet.Network
	ep  *rpc.Endpoint
	cfg Config

	servers map[int32]*serverInfo
	order   []int32 // deterministic iteration

	registry map[int32]*server.Server

	tables      map[string]uint64
	tablets     map[uint64][]wire.Tablet // table id -> tablets
	nextTableID uint64

	recoveries map[int32]*recoveryState
	records    []RecoveryRecord

	// Detector bookkeeping: every ping miss is a suspicion; a death
	// declared against a server that was actually alive is a false
	// positive (it is still enforced — see declareDead).
	suspicions     int64
	falsePositives int64

	// Re-spread bookkeeping (rejoin.go).
	respreadsPending int
	tabletsMigrated  int64

	onDeath func(id int32) // test/experiment hook
}

// New creates a coordinator attached to the fabric at addr.
func New(e *sim.Engine, net *simnet.Network, addr simnet.NodeID, cfg Config) *Coordinator {
	c := &Coordinator{
		eng:        e,
		net:        net,
		cfg:        cfg,
		servers:    make(map[int32]*serverInfo),
		registry:   make(map[int32]*server.Server),
		tables:     make(map[string]uint64),
		tablets:    make(map[uint64][]wire.Tablet),
		recoveries: make(map[int32]*recoveryState),
	}
	c.ep = rpc.NewEndpoint(e, net, addr)
	return c
}

// Addr returns the coordinator's fabric address.
func (c *Coordinator) Addr() simnet.NodeID { return c.ep.Node() }

// Records returns completed recovery summaries.
func (c *Coordinator) Records() []RecoveryRecord {
	return append([]RecoveryRecord(nil), c.records...)
}

// SetOnDeath installs a hook invoked when a server is declared dead.
func (c *Coordinator) SetOnDeath(fn func(id int32)) { c.onDeath = fn }

// Suspicions returns the number of ping misses the detector has seen.
func (c *Coordinator) Suspicions() int64 { return c.suspicions }

// FalsePositives returns how many declared deaths hit a live server.
func (c *Coordinator) FalsePositives() int64 { return c.falsePositives }

// RespreadsPending returns the number of rejoin re-spreads still running.
func (c *Coordinator) RespreadsPending() int { return c.respreadsPending }

// TabletsMigrated returns the number of tablets moved by rejoin re-spreads.
func (c *Coordinator) TabletsMigrated() int64 { return c.tabletsMigrated }

// AddServer registers a server with the coordinator's configuration plane
// (the equivalent of server enlistment at cluster bring-up).
func (c *Coordinator) AddServer(s *server.Server) {
	info := &serverInfo{id: s.ID(), addr: s.Addr(), alive: true}
	c.servers[s.ID()] = info
	c.registry[s.ID()] = s
	c.order = append(c.order, s.ID())
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
}

// Registry returns the server lookup used for zero-time bulk loading.
func (c *Coordinator) Registry() server.Registry {
	return func(addr simnet.NodeID) *server.Server {
		return c.registry[int32(addr)]
	}
}

// Start launches the coordinator's service loop and one pinger per server.
func (c *Coordinator) Start() {
	c.eng.Go("coord-service", c.serviceLoop)
	for _, id := range c.order {
		id := id
		c.eng.Go(fmt.Sprintf("coord-ping-%d", id), func(p *sim.Proc) { c.pingLoop(p, id) })
	}
}

// AliveServers returns the ids of servers currently believed alive.
func (c *Coordinator) AliveServers() []int32 {
	var out []int32
	for _, id := range c.order {
		if c.servers[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// serviceLoop handles control-plane RPCs. Coordinator CPU is not modeled:
// it is never the measured bottleneck in the paper's experiments.
func (c *Coordinator) serviceLoop(p *sim.Proc) {
	for {
		req := c.ep.Inbound.Pop(p)
		p.Sleep(2 * sim.Microsecond)
		switch m := req.Msg.(type) {
		case *wire.CreateTableReq:
			c.serveCreateTable(req, m)
		case *wire.DropTableReq:
			c.serveDropTable(req, m)
		case *wire.GetTabletMapReq:
			c.serveTabletMap(req)
		case *wire.EnlistReq:
			c.ep.Reply(req, &wire.EnlistResp{Status: wire.StatusOK, ServerID: m.Node})
		case *wire.SetWillReq:
			if info, ok := c.servers[m.Master]; ok {
				info.will = m.Partitions
			}
			c.ep.Reply(req, &wire.SetWillResp{Status: wire.StatusOK})
		case *wire.RecoveryDoneReq:
			c.serveRecoveryDone(req, m)
		case *wire.PingReq:
			c.ep.Reply(req, &wire.PingResp{Seq: m.Seq})
		default:
			panic(fmt.Sprintf("coordinator: unexpected request %T", req.Msg))
		}
	}
}

func (c *Coordinator) serveCreateTable(req rpc.Request, m *wire.CreateTableReq) {
	id, ok := c.createTable(m.Name, int(m.ServerSpan))
	if !ok {
		c.ep.Reply(req, &wire.CreateTableResp{Status: wire.StatusError})
		return
	}
	c.ep.Reply(req, &wire.CreateTableResp{Status: wire.StatusOK, Table: id})
}

// CreateTableDirect creates a table through the configuration plane
// without RPC; used at cluster bring-up before any client exists.
func (c *Coordinator) CreateTableDirect(name string, serverSpan int) uint64 {
	id, ok := c.createTable(name, serverSpan)
	if !ok {
		panic("coordinator: create table with no alive servers")
	}
	return id
}

// TabletMapDirect returns a snapshot of the full tablet map.
func (c *Coordinator) TabletMapDirect() []wire.Tablet {
	var all []wire.Tablet
	for _, id := range c.sortedTableIDs() {
		all = append(all, c.tablets[id]...)
	}
	return all
}

// sortedTableIDs returns the table IDs in ascending order; every walk of
// c.tablets that can reach rendered output or the wire must use it.
func (c *Coordinator) sortedTableIDs() []uint64 {
	ids := make([]uint64, 0, len(c.tablets))
	for id := range c.tablets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (c *Coordinator) createTable(name string, span int) (uint64, bool) {
	if id, exists := c.tables[name]; exists {
		return id, true
	}
	alive := c.AliveServers()
	if len(alive) == 0 {
		return 0, false
	}
	if span <= 0 || span > len(alive) {
		span = len(alive)
	}
	c.nextTableID++
	id := c.nextTableID
	c.tables[name] = id

	tablets := store.SplitHashSpace(id, span, alive)
	for _, t := range tablets {
		c.registry[t.Master].AssignTablet(t)
	}
	c.tablets[id] = tablets
	return id, true
}

func (c *Coordinator) serveDropTable(req rpc.Request, m *wire.DropTableReq) {
	id, ok := c.tables[m.Name]
	if !ok {
		c.ep.Reply(req, &wire.DropTableResp{Status: wire.StatusUnknownTable})
		return
	}
	delete(c.tables, m.Name)
	delete(c.tablets, id)
	for _, s := range c.registry {
		s.DropTablets(id)
	}
	c.ep.Reply(req, &wire.DropTableResp{Status: wire.StatusOK})
}

func (c *Coordinator) serveTabletMap(req rpc.Request) {
	var all []wire.Tablet
	for _, id := range c.sortedTableIDs() {
		all = append(all, c.tablets[id]...)
	}
	c.ep.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: all})
}

// pingLoop probes one server until it is declared dead.
func (c *Coordinator) pingLoop(p *sim.Proc, id int32) {
	info := c.servers[id]
	seq := uint64(0)
	for info.alive {
		p.Sleep(c.cfg.PingInterval)
		if !info.alive {
			return
		}
		seq++
		_, ok := c.ep.CallTimeout(p, info.addr, &wire.PingReq{Seq: seq}, c.cfg.PingTimeout)
		if ok {
			info.misses = 0
			continue
		}
		info.misses++
		c.suspicions++
		if info.misses >= c.cfg.MissThreshold {
			c.declareDead(id)
			return
		}
	}
}
