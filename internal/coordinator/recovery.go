package coordinator

import (
	"fmt"
	"sort"

	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// This file runs crash recovery: on a declared death the membership splits
// the crashed master's tablets into recovering partitions; the coordinator
// collects the crashed master's segment inventory from all backups, has
// the membership assign the partitions to recovery masters and starts
// their replays. Tablets flip to their new owners partition by partition;
// lost data stays unavailable (clients see Recovering) until its partition
// finishes — the paper's Fig. 10 blocked-client behaviour.

func (c *Coordinator) declareDead(id int32) {
	rec, restarts := c.m.DeclareDead(id)
	// Declaring a live server dead is a detector false positive. With
	// EnforceDeath the coordinator also kills the process (RAMCloud's
	// "server is dead once we say so" rule — no split-brain); without it
	// the declaration is only recorded, matching the calibrated paper
	// renderings where replay-overloaded servers can be spuriously
	// declared without losing their replay work.
	if s := c.registry[id]; s != nil && !s.Dead() {
		c.falsePositives++
		if c.cfg.EnforceDeath {
			s.Kill()
		}
	}
	if c.onDeath != nil {
		c.onDeath(id)
	}
	// If the deceased was acting as a recovery master, its unfinished
	// partitions restart on a survivor (RAMCloud restarts the recovery;
	// replayed-but-unflipped data on the dead node is garbage).
	for _, r := range restarts {
		c.eng.Go(fmt.Sprintf("coord-rerecover-%d-%x", r.Rec.Crashed, r.Part.Range.FirstHash), func(p *sim.Proc) {
			if !c.startReplay(p, r.Rec, r.Part) && c.m.Abandon(r.Rec, r.Part) {
				c.finish(r.Rec)
			}
		})
	}
	if rec == nil {
		return
	}
	c.detectedAt[rec] = c.eng.Now()
	c.eng.Go(fmt.Sprintf("coord-recover-%d", id), func(p *sim.Proc) {
		c.runRecovery(p, rec)
	})
}

// startReplay asks part's recovery master to replay it, and reports
// whether it accepted.
func (c *Coordinator) startReplay(p *sim.Proc, rec *store.Recovery, part *store.Partition) bool {
	_, ok := c.ep.CallTimeout(p, c.addr(part.Master), &wire.RecoverReq{
		Crashed:   rec.Crashed,
		FirstHash: part.Range.FirstHash,
		LastHash:  part.Range.LastHash,
		Segments:  rec.Segments,
	}, 2*sim.Second)
	return ok
}

// runRecovery drives one crashed master's recovery to completion.
func (c *Coordinator) runRecovery(p *sim.Proc, rec *store.Recovery) {
	// Phase 1: find the lost segments on the surviving backups.
	type holder struct {
		backup int32
		bytes  uint32
	}
	segs := make(map[uint64]holder)
	for _, id := range c.m.Servers() {
		if !c.m.IsAlive(id) {
			continue // checked as the phase goes: a backup may die meanwhile
		}
		resp, ok := c.ep.CallTimeout(p, c.addr(id), &wire.SegmentInventoryReq{Master: rec.Crashed}, 2*sim.Second)
		if !ok {
			continue
		}
		for _, si := range resp.(*wire.SegmentInventoryResp).Segments {
			if _, have := segs[si.Segment]; !have {
				segs[si.Segment] = holder{backup: id, bytes: si.Bytes}
			}
		}
	}
	// Replay in segment order: versions were assigned monotonically, so
	// ascending segment ids deliver newest-last.
	segIDs := make([]uint64, 0, len(segs))
	for id := range segs {
		segIDs = append(segIDs, id)
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	locs := make([]wire.SegmentLoc, 0, len(segIDs))
	for _, sid := range segIDs {
		h := segs[sid]
		locs = append(locs, wire.SegmentLoc{Segment: sid, Backup: h.backup, Bytes: h.bytes})
	}
	rec.Segments = locs

	// Phase 2: assign partitions to recovery masters round-robin.
	tries := len(c.m.Alive()) + 1
	if !c.m.Assign(rec) {
		return // total cluster loss; nothing to do
	}

	// Phase 3: start the replays. A recovery master that fails to accept
	// is replaced by the next alive candidate before giving up.
	for _, part := range rec.Partitions {
		started := false
		for attempt := 0; attempt < tries && !started; attempt++ {
			if !c.m.IsAlive(part.Master) {
				if !c.m.Retarget(part, attempt) {
					break
				}
				continue
			}
			started = c.startReplay(p, rec, part)
			if !started && !c.m.Retarget(part, attempt) {
				break
			}
		}
		if !started {
			c.m.Abandon(rec, part)
		}
	}
	c.finish(rec)
}

// serveRecoveryDone flips the finished partition's tablets to the recovery
// master and closes the recovery when the last partition completes.
func (c *Coordinator) serveRecoveryDone(req rpc.Request, m *wire.RecoveryDoneReq) {
	defer c.ep.Reply(req, &wire.RecoveryDoneResp{Status: wire.StatusOK})
	rec, flipped := c.m.Recovered(m.Crashed, m.FirstHash, m.Ok)
	if rec == nil {
		return
	}
	for _, t := range flipped {
		if owner := c.registry[t.Master]; owner != nil {
			owner.AssignTablet(wire.Tablet{Table: t.Table, StartHash: t.StartHash, EndHash: t.EndHash})
		}
	}
	c.finish(rec)
}

// finish closes the recovery once every partition reported: old replicas
// are freed cluster-wide and the record is logged.
func (c *Coordinator) finish(rec *store.Recovery) {
	if !c.m.Close(rec) {
		return
	}
	allOK := true
	for _, part := range rec.Partitions {
		if !part.OK {
			allOK = false
		}
	}
	c.records = append(c.records, RecoveryRecord{
		Crashed:    rec.Crashed,
		DetectedAt: c.detectedAt[rec],
		DoneAt:     c.eng.Now(),
		Partitions: len(rec.Partitions),
		AllOK:      allOK,
	})
	delete(c.detectedAt, rec)
	for _, id := range c.m.Alive() {
		c.ep.AsyncCall(c.addr(id), &wire.FreeReplicasReq{Master: rec.Crashed})
	}
}
