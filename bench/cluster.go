package main

import (
	"fmt"
	"time"

	"ramcloud/internal/realnode"
	"ramcloud/internal/transport"
)

// cluster is one coordinator, nServers masters and one shared client, all
// in this process. In-process is deliberate: a traced and an untraced run
// then differ by the tracing alone, one getrusage and one MemStats cover
// every node (the energy proxy), and on a two-core box four more OS
// processes would mostly measure the kernel scheduler.
// scripts/cluster_smoke.sh remains the multi-process gate.
type cluster struct {
	coord   *realnode.Coordinator
	servers []*realnode.Server
	client  *realnode.Client
	table   uint64
	bootMs  float64 // coordinator start + enlists + CreateTable
}

// bootCluster starts a fresh cluster over tr with default node
// configuration and creates the benchmark table across every server.
func bootCluster(tr transport.Interface) (*cluster, error) {
	t0 := time.Now()
	c := &cluster{coord: realnode.NewCoordinator(tr, realnode.CoordConfig{})}
	if err := c.coord.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	for i := 0; i < nServers; i++ {
		s := realnode.NewServer(tr, c.coord.Addr(), realnode.ServerConfig{})
		if err := s.Start("127.0.0.1:0"); err != nil {
			c.stop()
			return nil, fmt.Errorf("start server %d: %w", i, err)
		}
		c.servers = append(c.servers, s)
	}
	c.client = realnode.NewClient(tr, c.coord.Addr(), realnode.ClientConfig{})
	table, err := c.client.CreateTable("usertable", nServers)
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("create table: %w", err)
	}
	c.table = table
	c.bootMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return c, nil
}

func (c *cluster) stop() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.servers {
		s.Stop()
	}
	c.coord.Stop()
}

// load inserts every record through MultiWrite rounds and fails on the
// first item error: after it, a not-found is a correctness failure.
func (c *cluster) load(d *dataset) error {
	const round = 64
	for from := 0; from < len(d.keys); from += round {
		to := from + round
		if to > len(d.keys) {
			to = len(d.keys)
		}
		for i, r := range c.client.MultiWrite(c.table, d.keys[from:to], d.vals[from:to]) {
			if r.Err != nil {
				return fmt.Errorf("load record %d: %w", from+i, r.Err)
			}
		}
	}
	return nil
}

// served sums the masters' served-OK counters.
func (c *cluster) served() (reads, writes, wrongServer uint64, perServer []uint64) {
	for _, s := range c.servers {
		r, w, _, ws := s.Counters()
		reads += r
		writes += w
		wrongServer += ws
		perServer = append(perServer, r+w)
	}
	return reads, writes, wrongServer, perServer
}
