// Package coordinator runs the RAMCloud coordinator on the simulator. What
// it decides — cluster membership, the tables and tablet map, wills, when
// missed pings declare a death, how a dead master's tablets are split into
// recovery partitions and to whom each goes, which tablet a rejoined
// server takes — is store.Membership, which the real coordinator
// (realnode.Coordinator) decides by too. This package does the rest as
// simulated I/O: the pings and their timeouts, the segment inventory and
// the replays, the migrations, enforced deaths and the recovery records.
//
// The coordinator runs on its own node, which — like in the paper's
// deployment — is not power-metered (the 40 PDU-equipped nodes run only
// masters/backups).
package coordinator

import (
	"fmt"

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

// RecoveryRecord summarizes one completed crash recovery.
type RecoveryRecord struct {
	Crashed    int32
	DetectedAt sim.Time
	DoneAt     sim.Time
	Partitions int
	AllOK      bool
}

// Coordinator is the cluster's configuration and recovery manager: the
// membership, tables and tablet map are a store.Membership, and the
// coordinator runs its decisions as simulated RPCs and procs.
type Coordinator struct {
	eng *sim.Engine
	net *simnet.Network
	ep  *rpc.Endpoint
	cfg Config

	m        *store.Membership
	registry map[int32]*server.Server

	detectedAt map[*store.Recovery]sim.Time // open recoveries
	records    []RecoveryRecord

	// Detector bookkeeping: every ping miss is a suspicion; a death
	// declared against a server that was actually alive is a false
	// positive (it is still enforced — see declareDead).
	suspicions     int64
	falsePositives int64

	// Re-spread bookkeeping (rejoin.go).
	respreadsPending int
	tabletsMigrated  int64

	onDeath func(id int32) // called when a server is declared dead; set by tests
}

// New creates a coordinator attached to the fabric at addr.
func New(e *sim.Engine, net *simnet.Network, addr simnet.NodeID, cfg Config) *Coordinator {
	c := &Coordinator{
		eng:        e,
		net:        net,
		cfg:        cfg,
		m:          store.NewMembership(cfg.MissThreshold),
		registry:   make(map[int32]*server.Server),
		detectedAt: make(map[*store.Recovery]sim.Time),
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
	c.registry[s.ID()] = s
	c.m.Enlist(s.ID())
}

// addr returns server id's fabric address.
func (c *Coordinator) addr(id int32) simnet.NodeID { return c.registry[id].Addr() }

// Registry returns the server lookup used for zero-time bulk loading.
func (c *Coordinator) Registry() server.Registry {
	return func(addr simnet.NodeID) *server.Server {
		return c.registry[int32(addr)]
	}
}

// Start launches the coordinator's service loop and one pinger per server.
func (c *Coordinator) Start() {
	c.eng.Go("coord-service", c.serviceLoop)
	for _, id := range c.m.Alive() {
		c.eng.Go(fmt.Sprintf("coord-ping-%d", id), func(p *sim.Proc) { c.pingLoop(p, id) })
	}
}

// AliveServers returns the ids of servers currently believed alive.
func (c *Coordinator) AliveServers() []int32 { return c.m.Alive() }

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
			c.m.SetWill(m.Master, m.Partitions)
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
func (c *Coordinator) TabletMapDirect() []wire.Tablet { return c.m.Tablets() }

func (c *Coordinator) createTable(name string, span int) (uint64, bool) {
	id, created, ok := c.m.CreateTable(name, span)
	for _, t := range created {
		c.registry[t.Master].AssignTablet(t)
	}
	return id, ok
}

func (c *Coordinator) serveDropTable(req rpc.Request, m *wire.DropTableReq) {
	id, ok := c.m.DropTable(m.Name)
	if !ok {
		c.ep.Reply(req, &wire.DropTableResp{Status: wire.StatusUnknownTable})
		return
	}
	for _, s := range c.registry {
		s.DropTablets(id)
	}
	c.ep.Reply(req, &wire.DropTableResp{Status: wire.StatusOK})
}

func (c *Coordinator) serveTabletMap(req rpc.Request) {
	c.ep.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: c.m.Tablets()})
}

// pingLoop probes one server until it is declared dead.
func (c *Coordinator) pingLoop(p *sim.Proc, id int32) {
	seq := uint64(0)
	for c.m.IsAlive(id) {
		p.Sleep(c.cfg.PingInterval)
		if !c.m.IsAlive(id) {
			return
		}
		seq++
		_, ok := c.ep.CallTimeout(p, c.addr(id), &wire.PingReq{Seq: seq}, c.cfg.PingTimeout)
		if !ok {
			c.suspicions++
		}
		if c.m.Pinged(id, ok) {
			c.declareDead(id)
			return
		}
	}
}
