package coordinator

import (
	"fmt"

	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

// This file implements server rejoin: a restarted server re-enlists with
// the coordinator, which re-admits it (fresh registry entry, ping loop
// restarted, peers clear their dead marks) and then re-spreads load onto it
// by migrating tablets from the most-loaded masters until the newcomer
// holds a fair share.

const migrateTimeout = 30 * sim.Second

// Readmit re-enlists a restarted server. The caller has already rebuilt
// the server process (fresh Server on the same node and fabric address) and
// started it; Readmit flips coordinator-side state and kicks off the
// re-spread in its own proc. RespreadsPending reflects the re-spread
// immediately, so a caller observing Readmit's return can wait on it.
func (c *Coordinator) Readmit(s *server.Server) {
	id := s.ID()
	c.registry[id] = s
	if c.m.Enlist(id) {
		c.eng.Go(fmt.Sprintf("coord-ping-%d", id), func(p *sim.Proc) { c.pingLoop(p, id) })
	}
	// Peers that saw replication timeouts while the server was down hold a
	// permanent dead mark; clear it so the newcomer hosts replicas again.
	for _, sid := range c.m.Alive() {
		if peer := c.registry[sid]; sid != id && peer != nil {
			peer.PeerRejoined(s.Addr())
		}
	}
	c.respreadsPending++
	c.eng.Go(fmt.Sprintf("coord-respread-%d", id), func(p *sim.Proc) {
		defer func() { c.respreadsPending-- }()
		c.rebalanceToward(p, id)
	})
}

// rebalanceToward migrates the tablets the membership picks to target, one
// at a time: recoveries and client-driven table changes may run between
// moves.
func (c *Coordinator) rebalanceToward(p *sim.Proc, target int32) {
	for {
		donor, t, ok := c.m.NextMove(target)
		if !ok {
			return
		}
		resp, ok := c.ep.CallTimeout(p, c.addr(donor), &wire.MigrateTabletReq{
			Table:     t.Table,
			FirstHash: t.StartHash,
			LastHash:  t.EndHash,
			Dst:       target,
		}, migrateTimeout)
		if !ok {
			return
		}
		mr, good := resp.(*wire.MigrateTabletResp)
		if !good || mr.Status != wire.StatusOK {
			return
		}
		// The source has dropped the range; hand it to the target and flip
		// the map so client refreshes re-route.
		if dst := c.registry[target]; dst != nil {
			dst.AssignTablet(wire.Tablet{Table: t.Table, StartHash: t.StartHash, EndHash: t.EndHash})
		}
		c.m.Moved(t, target)
		c.tabletsMigrated++
	}
}
