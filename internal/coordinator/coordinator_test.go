package coordinator

import (
	"errors"
	"fmt"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
)

type rig struct {
	eng     *sim.Engine
	net     *simnet.Network
	coord   *Coordinator
	servers []*server.Server
}

func newRig(t *testing.T, n, rf int) *rig {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	coord := New(eng, net, simnet.NodeID(-1), DefaultConfig())
	cfg := server.DefaultConfig()
	cfg.ReplicationFactor = rf
	cfg.Log.SegmentBytes = 32 << 10
	cfg.Log.TotalBytes = 32 << 20
	cfg.PartitionBytes = 1 << 20
	r := &rig{eng: eng, net: net, coord: coord}
	var addrs []simnet.NodeID
	for i := 0; i < n; i++ {
		node := machine.NewNode(eng, i+1, machine.Grid5000Nancy())
		disk := simdisk.New(eng, simdisk.DefaultConfig())
		s := server.New(eng, node, net, disk, coord.Addr(), cfg)
		coord.AddServer(s)
		r.servers = append(r.servers, s)
		addrs = append(addrs, s.Addr())
	}
	for _, s := range r.servers {
		s.SetPeers(addrs)
		s.SetRegistry(coord.Registry())
	}
	coord.Start()
	for _, s := range r.servers {
		s.Start()
	}
	return r
}

func (r *rig) newClient() *client.Client {
	return client.New(r.eng, r.net, simnet.NodeID(1000+len(r.servers)), r.coord.Addr(), client.DefaultConfig())
}

func TestCreateTableSpansServers(t *testing.T) {
	r := newRig(t, 4, 0)
	id := r.coord.CreateTableDirect("t", 4)
	tablets := r.coord.TabletMapDirect()
	if len(tablets) != 4 {
		t.Fatalf("tablets = %d, want 4", len(tablets))
	}
	owners := map[int32]bool{}
	var covered uint64
	for _, tb := range tablets {
		if tb.Table != id {
			t.Fatalf("tablet for wrong table: %+v", tb)
		}
		owners[tb.Master] = true
		covered += tb.EndHash - tb.StartHash
	}
	if len(owners) != 4 {
		t.Fatalf("owners = %d, want 4 (round-robin)", len(owners))
	}
	// Re-creating returns the same table.
	if again := r.coord.CreateTableDirect("t", 4); again != id {
		t.Fatalf("recreate returned %d, want %d", again, id)
	}
	r.eng.Shutdown()
}

func TestClientTableRPCs(t *testing.T) {
	r := newRig(t, 2, 0)
	c := r.newClient()
	var tableID uint64
	var errs []error
	r.eng.Go("app", func(p *sim.Proc) {
		var err error
		tableID, err = c.CreateTable(p, "users", 2)
		errs = append(errs, err)
		errs = append(errs, c.Write(p, tableID, []byte("k"), 10, nil))
		_, _, err = c.Read(p, tableID, []byte("k"))
		errs = append(errs, err)
		errs = append(errs, c.DropTable(p, "users"))
		_, _, err = c.Read(p, tableID, []byte("k"))
		if !errors.Is(err, client.ErrNoTable) && !errors.Is(err, client.ErrUnavailable) {
			errs = append(errs, fmt.Errorf("read after drop: %v", err))
		}
		r.eng.Stop()
	})
	r.eng.Run()
	r.eng.Shutdown()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestFailureDetectionAndRecoveryRecord(t *testing.T) {
	r := newRig(t, 4, 2)
	r.coord.CreateTableDirect("t", 4)
	// Seed data so the dead server has something to recover: the first
	// server takes every record, and its segments are then placed on
	// backups in the order it opened them.
	var segments []uint64
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("user%010d", i))
		seg, err := r.servers[0].Load(1, key, hashtable.HashKey(1, key), 512)
		if err != nil {
			t.Fatal(err)
		}
		if len(segments) == 0 || segments[len(segments)-1] != seg {
			segments = append(segments, seg)
		}
	}
	for _, seg := range segments {
		r.servers[0].PlaceReplicas(seg)
	}
	var died int32 = -1
	r.coord.onDeath = func(id int32) { died = id }
	r.eng.Schedule(2*sim.Second, func() { r.servers[1].Kill() })
	r.eng.Go("waiter", func(p *sim.Proc) {
		for len(r.coord.Records()) == 0 {
			p.Sleep(250 * sim.Millisecond)
			if p.Now() > sim.Time(sim.Minute) {
				break
			}
		}
		r.eng.Stop()
	})
	r.eng.Run()
	r.eng.Shutdown()
	if died != r.servers[1].ID() {
		t.Fatalf("death hook got %d, want %d", died, r.servers[1].ID())
	}
	recs := r.coord.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Crashed != r.servers[1].ID() || recs[0].DoneAt <= recs[0].DetectedAt {
		t.Fatalf("bad record %+v", recs[0])
	}
	// Dead server's tablets must have new owners, none recovering.
	for _, tb := range r.coord.TabletMapDirect() {
		if tb.Recovering {
			t.Fatalf("tablet still recovering: %+v", tb)
		}
		if tb.Master == r.servers[1].ID() {
			t.Fatalf("tablet still owned by dead server: %+v", tb)
		}
	}
	if got := len(r.coord.AliveServers()); got != 3 {
		t.Fatalf("alive = %d, want 3", got)
	}
}

func TestClientRetriesThroughRecovery(t *testing.T) {
	r := newRig(t, 3, 2)
	r.coord.CreateTableDirect("t", 3)
	c := r.newClient()
	var finalErr error
	r.eng.Go("app", func(p *sim.Proc) {
		// Write a key, find its owner, kill it, then read the key again:
		// the client must block through recovery and then succeed.
		key := []byte("persistent-key")
		if err := c.Write(p, 1, key, 64, nil); err != nil {
			finalErr = err
			r.eng.Stop()
			return
		}
		// The owner is the server whose log received the append.
		var owner *server.Server
		for _, s := range r.servers {
			if s.Log().Appends() > 0 {
				owner = s
				break
			}
		}
		owner.Kill()
		_, _, finalErr = c.Read(p, 1, key)
		r.eng.Stop()
	})
	r.eng.Run()
	r.eng.Shutdown()
	if finalErr != nil {
		t.Fatalf("read through recovery: %v", finalErr)
	}
	if c.Stats().Timeouts.Value() == 0 && c.Stats().Retries.Value() == 0 {
		t.Fatal("client should have retried through the crash")
	}
}
