package core

import (
	"cmp"
	"fmt"
	"slices"

	"ramcloud/internal/client"
	"ramcloud/internal/coordinator"
	"ramcloud/internal/energy"
	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/ycsb"
)

// Fabric addressing: servers occupy node ids 1..N (so server id == node
// id), the coordinator sits at CoordinatorAddr and clients at
// ClientAddrBase+i. Only server nodes are power-metered, mirroring the
// paper's 40 PDU-equipped machines.
const (
	// CoordinatorAddr is the coordinator's fabric address.
	CoordinatorAddr simnet.NodeID = -1
	// ClientAddrBase is the first client fabric address.
	ClientAddrBase simnet.NodeID = 10_000
)

// Cluster is a fully wired simulated testbed: N storage servers
// (master+backup), one coordinator, PDUs, disks and the fabric.
type Cluster struct {
	Profile Profile

	Eng     *sim.Engine
	Net     *simnet.Network
	Coord   *coordinator.Coordinator
	Servers []*server.Server
	Nodes   []*machine.Node
	Disks   []*simdisk.Disk
	PDUs    []*energy.PDU

	Clients []*client.Client

	addrs []simnet.NodeID // server fabric addresses, by index
	rf    int             // replication factor servers were built with

	meter   *sim.Ticker
	started bool
}

// NewCluster wires a cluster of n servers with the profile's hardware and
// the given replication factor. Call Start before running workload procs.
func NewCluster(eng *sim.Engine, p Profile, n int, replicationFactor int) *Cluster {
	if n < 1 {
		panic("core: cluster needs at least one server")
	}
	c := &Cluster{Profile: p, Eng: eng}
	c.Net = simnet.New(eng, p.Net)
	c.Coord = coordinator.New(eng, c.Net, CoordinatorAddr, p.Coordinator)

	srvCfg := p.Server
	srvCfg.ReplicationFactor = replicationFactor

	var addrs []simnet.NodeID
	for i := 0; i < n; i++ {
		node := machine.NewNode(eng, i+1, p.Machine)
		disk := simdisk.New(eng, p.Disk)
		srv := server.New(eng, node, c.Net, disk, CoordinatorAddr, srvCfg)
		c.Nodes = append(c.Nodes, node)
		c.Disks = append(c.Disks, disk)
		c.Servers = append(c.Servers, srv)
		c.Coord.AddServer(srv)
		addrs = append(addrs, srv.Addr())
	}
	c.addrs = addrs
	c.rf = replicationFactor
	for i, srv := range c.Servers {
		srv.SetPeers(addrs)
		srv.SetRegistry(c.Coord.Registry())

		node, disk, addr := c.Nodes[i], c.Disks[i], addrs[i]
		pdu := energy.NewPDU(p.Power,
			func(k int) float64 { return node.UtilSecond(k) },
			func(k int) float64 { return disk.BusyFracSecond(k) },
			func(k int) float64 { return c.Net.TxBusyFracSecond(addr, k) },
		)
		c.PDUs = append(c.PDUs, pdu)
	}
	return c
}

// Start launches the coordinator, all servers and the 1 Hz PDU metering.
func (c *Cluster) Start() {
	if c.started {
		panic("core: cluster started twice")
	}
	c.started = true
	c.Coord.Start()
	for _, s := range c.Servers {
		s.Start()
	}
	c.meter = sim.NewTicker(c.Eng, sim.Second, func(now sim.Time) {
		k := int(int64(now)/int64(sim.Second)) - 1
		for i, node := range c.Nodes {
			node.FlushAccounting(now)
			c.PDUs[i].Sample(k)
		}
	})
}

// StopMetering halts the PDU ticker so the event queue can drain.
func (c *Cluster) StopMetering() {
	if c.meter != nil {
		c.meter.Stop()
	}
}

// NewClient adds a client at the next client address.
func (c *Cluster) NewClient() *client.Client {
	addr := ClientAddrBase + simnet.NodeID(len(c.Clients))
	cl := client.New(c.Eng, c.Net, addr, CoordinatorAddr, c.Profile.Client)
	c.Clients = append(c.Clients, cl)
	return cl
}

// CreateTable creates a table spanning all servers (the paper's
// ServerSpan = cluster size) through the configuration plane.
func (c *Cluster) CreateTable(name string) uint64 {
	return c.Coord.CreateTableDirect(name, len(c.Servers))
}

// BulkLoad fills a table with records of the given size in zero simulated
// time, building the same log, hash-table and replica state a YCSB load
// phase would. Replicas of sealed segments are marked flushed.
//
// It hashes each key once and loads one master at a time, each in record
// order, so one index and one log head are in cache at a time. Then it
// copies each segment the load wrote to onto its backups once, in the
// order of the records that opened the segments: choosing backups draws
// the engine's randomness, and that is the order loading record by record
// would have drawn in.
func (c *Cluster) BulkLoad(table uint64, records, recordSize int) {
	tablets := c.Coord.TabletMapDirect()
	hashes := make([]uint64, records)
	byOwner := make([][]int32, len(c.Servers)+1) // record indices by owner id, 1..N
	var key []byte                               // the log copies a key, so one buffer serves them all
	for i := range records {
		key = ycsb.AppendKey(key[:0], i)
		hashes[i] = hashtable.HashKey(table, key)
		t := store.Find(tablets, table, hashes[i])
		if t == nil {
			panic(fmt.Sprintf("core: no owner for record %d", i))
		}
		byOwner[t.Master] = append(byOwner[t.Master], int32(i))
	}

	type placement struct {
		record  int32
		master  *server.Server
		segment uint64
	}
	var placements []placement
	reg := c.Coord.Registry()
	for id, recs := range byOwner {
		if len(recs) == 0 {
			continue
		}
		master := reg(simnet.NodeID(id))
		var last uint64
		for _, i := range recs {
			key = ycsb.AppendKey(key[:0], int(i))
			segment, err := master.Load(table, key, hashes[i], uint32(recordSize))
			if err != nil {
				panic(fmt.Sprintf("core: bulk load: %v", err))
			}
			if segment != last {
				placements = append(placements, placement{i, master, segment})
				last = segment
			}
		}
	}
	slices.SortFunc(placements, func(a, b placement) int { return cmp.Compare(a.record, b.record) })
	for _, p := range placements {
		p.master.PlaceReplicas(p.segment)
	}
}

// KillServer crashes server index i (0-based). The coordinator's failure
// detector will notice within its ping budget.
func (c *Cluster) KillServer(i int) {
	c.Servers[i].Kill()
}

// RestartServer rebuilds a killed server process on its original node and
// fabric address, starts it and re-admits it with the coordinator (which
// re-spreads tablets onto it). The restarted process is empty: DRAM
// contents and backup replica metadata died with the old process, exactly
// like a real restart. Returns false if the server was not dead.
func (c *Cluster) RestartServer(i int) bool {
	if !c.Servers[i].Dead() {
		return false
	}
	addr := c.addrs[i]
	c.Net.Detach(addr)
	c.Net.SetDown(addr, false)
	c.Nodes[i].Revive()

	srvCfg := c.Profile.Server
	srvCfg.ReplicationFactor = c.rf
	srv := server.New(c.Eng, c.Nodes[i], c.Net, c.Disks[i], CoordinatorAddr, srvCfg)
	srv.SetPeers(c.addrs)
	srv.SetRegistry(c.Coord.Registry())
	c.Servers[i] = srv
	srv.Start()
	c.Coord.Readmit(srv)
	return true
}

// EnergyReport aggregates PDU data over seconds [from, to).
func (c *Cluster) EnergyReport(from, to int, ops int64) energy.Report {
	return energy.WindowReport(c.PDUs, from, to, ops)
}
