package server

import (
	"fmt"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// testRig wires a few servers with a stub coordinator endpoint that
// swallows wills and pings.
type testRig struct {
	eng     *sim.Engine
	net     *simnet.Network
	servers []*Server
	client  *rpc.Endpoint
}

func newRig(t *testing.T, n int, cfg Config) *testRig {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	coord := rpc.NewEndpoint(eng, net, simnet.NodeID(-1))
	eng.Go("stub-coord", func(p *sim.Proc) {
		for {
			req := coord.Inbound.Pop(p)
			switch req.Msg.(type) {
			case *wire.SetWillReq:
				coord.Reply(req, &wire.SetWillResp{Status: wire.StatusOK})
			case *wire.RecoveryDoneReq:
				coord.Reply(req, &wire.RecoveryDoneResp{Status: wire.StatusOK})
			}
		}
	})
	rig := &testRig{eng: eng, net: net}
	var addrs []simnet.NodeID
	reg := map[simnet.NodeID]*Server{}
	for i := 0; i < n; i++ {
		node := machine.NewNode(eng, i+1, machine.Grid5000Nancy())
		disk := simdisk.New(eng, simdisk.DefaultConfig())
		s := New(eng, node, net, disk, simnet.NodeID(-1), cfg)
		rig.servers = append(rig.servers, s)
		addrs = append(addrs, s.Addr())
		reg[s.Addr()] = s
	}
	for _, s := range rig.servers {
		s.SetPeers(addrs)
		s.SetRegistry(func(id simnet.NodeID) *Server { return reg[id] })
		s.AssignTablet(wire.Tablet{Table: 1, StartHash: 0, EndHash: ^uint64(0)})
		s.Start()
	}
	rig.client = rpc.NewEndpoint(eng, net, simnet.NodeID(999))
	return rig
}

func smallCfg(rf int) Config {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = rf
	cfg.Log.SegmentBytes = 16 << 10
	cfg.Log.TotalBytes = 16 << 20
	return cfg
}

func TestServerWriteReadDeleteRPC(t *testing.T) {
	rig := newRig(t, 1, smallCfg(0))
	srv := rig.servers[0].Addr()
	var failures []string
	rig.eng.Go("client", func(p *sim.Proc) {
		w := rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: []byte("k"), ValueLen: 100}).(*wire.WriteResp)
		if w.Status != wire.StatusOK || w.Version != 1 {
			failures = append(failures, "write status/version")
		}
		r := rig.client.Call(p, srv, &wire.ReadReq{Table: 1, Key: []byte("k")}).(*wire.ReadResp)
		if r.Status != wire.StatusOK || r.ValueLen != 100 || r.Version != 1 {
			failures = append(failures, "read mismatch")
		}
		w2 := rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: []byte("k"), ValueLen: 50}).(*wire.WriteResp)
		if w2.Version != 2 {
			failures = append(failures, "overwrite version not bumped")
		}
		d := rig.client.Call(p, srv, &wire.DeleteReq{Table: 1, Key: []byte("k")}).(*wire.DeleteResp)
		if d.Status != wire.StatusOK {
			failures = append(failures, "delete failed")
		}
		r2 := rig.client.Call(p, srv, &wire.ReadReq{Table: 1, Key: []byte("k")}).(*wire.ReadResp)
		if r2.Status != wire.StatusUnknownKey {
			failures = append(failures, "read after delete should be UNKNOWN_KEY")
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
}

// TestWriteAfterReplayDoesNotRegressVersion replays an object at a high
// version (crash recovery), writes the key, and replays the old object
// again — what a second crash delivers, old segment after new. The write
// must be acknowledged above the recovered version, or the second replay's
// staleness check lets the old object displace it and an acknowledged
// write is lost.
func TestWriteAfterReplayDoesNotRegressVersion(t *testing.T) {
	rig := newRig(t, 1, smallCfg(0))
	s := rig.servers[0]
	key := []byte("k")
	old := wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, key), Key: key, ValueLen: 10, Version: 1000}
	var failures []string
	rig.eng.Go("client", func(p *sim.Proc) {
		if _, ok := s.replayObject(p, &old); !ok {
			failures = append(failures, "first replay refused")
		}
		w := rig.client.Call(p, s.Addr(), &wire.WriteReq{Table: 1, Key: key, ValueLen: 20}).(*wire.WriteResp)
		if w.Status != wire.StatusOK || w.Version <= old.Version {
			failures = append(failures, fmt.Sprintf("write after replay acknowledged at version %d, want above %d", w.Version, old.Version))
		}
		if _, ok := s.replayObject(p, &old); ok {
			failures = append(failures, "second replay displaced a newer write")
		}
		r := rig.client.Call(p, s.Addr(), &wire.ReadReq{Table: 1, Key: key}).(*wire.ReadResp)
		if r.Status != wire.StatusOK || r.ValueLen != 20 {
			failures = append(failures, fmt.Sprintf("read after second replay: status %v, ValueLen %d, want the 20 just written", r.Status, r.ValueLen))
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
}

// TestServerMultiOpRPC drives the batch handlers directly: a MultiWrite
// batch appends everything under one lock (versions are consecutive), a
// MultiRead returns every item, and non-owned keys fail per item with
// WrongServer while the rest of the batch succeeds.
func TestServerMultiOpRPC(t *testing.T) {
	rig := newRig(t, 1, smallCfg(0))
	srv := rig.servers[0].Addr()
	var failures []string
	rig.eng.Go("client", func(p *sim.Proc) {
		items := []wire.MultiWriteItem{
			{Table: 1, Key: []byte("a"), ValueLen: 100},
			{Table: 1, Key: []byte("b"), ValueLen: 200},
			{Table: 1, Key: []byte("c"), ValueLen: 300},
		}
		w := rig.client.Call(p, srv, &wire.MultiWriteReq{Items: items}).(*wire.MultiWriteResp)
		for i, it := range w.Items {
			if it.Status != wire.StatusOK {
				failures = append(failures, "multiwrite item status")
			}
			if it.Version != uint64(i+1) {
				failures = append(failures, "multiwrite versions not consecutive")
			}
		}
		r := rig.client.Call(p, srv, &wire.MultiReadReq{Items: []wire.MultiReadItem{
			{Table: 1, Key: []byte("b")},
			{Table: 1, Key: []byte("missing")},
			{Table: 1, Key: []byte("c")},
		}}).(*wire.MultiReadResp)
		if r.Items[0].Status != wire.StatusOK || r.Items[0].ValueLen != 200 {
			failures = append(failures, "multiread item 0")
		}
		if r.Items[1].Status != wire.StatusUnknownKey {
			failures = append(failures, "multiread missing key should be UNKNOWN_KEY")
		}
		if r.Items[2].Status != wire.StatusOK || r.Items[2].ValueLen != 300 {
			failures = append(failures, "multiread item 2")
		}

		// Shrink ownership: "b" keys hash outside [0,10] with overwhelming
		// likelihood, so a mixed batch must fail only the moved items.
		rig.servers[0].DropTablets(1)
		rig.servers[0].AssignTablet(wire.Tablet{Table: 1, StartHash: 0, EndHash: 10})
		r2 := rig.client.Call(p, srv, &wire.MultiReadReq{Items: []wire.MultiReadItem{
			{Table: 1, Key: []byte("b")},
		}}).(*wire.MultiReadResp)
		if r2.Status != wire.StatusOK || r2.Items[0].Status != wire.StatusWrongServer {
			failures = append(failures, "moved item should be WRONG_SERVER per item")
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
	if got := rig.servers[0].Stats().WritesOK.Value(); got != 3 {
		t.Errorf("WritesOK = %d, want 3", got)
	}
	if got := rig.servers[0].Stats().ReadsOK.Value(); got != 2 {
		t.Errorf("ReadsOK = %d, want 2", got)
	}
}

func TestServerWrongServerStatus(t *testing.T) {
	rig := newRig(t, 1, smallCfg(0))
	rig.servers[0].DropTablets(1)
	rig.servers[0].AssignTablet(wire.Tablet{Table: 1, StartHash: 0, EndHash: 10})
	srv := rig.servers[0].Addr()
	var status wire.Status
	rig.eng.Go("client", func(p *sim.Proc) {
		// Most keys hash far above 10.
		resp := rig.client.Call(p, srv, &wire.ReadReq{Table: 1, Key: []byte("somekey")}).(*wire.ReadResp)
		status = resp.Status
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if status != wire.StatusWrongServer {
		t.Fatalf("status = %v", status)
	}
	if rig.servers[0].Stats().WrongServer.Value() != 1 {
		t.Fatal("WrongServer counter not bumped")
	}
}

func TestReplicationWaitsForAllBackups(t *testing.T) {
	rig := newRig(t, 4, smallCfg(3))
	srv := rig.servers[0].Addr()
	rig.eng.Go("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			resp := rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: []byte{byte(i)}, ValueLen: 64}).(*wire.WriteResp)
			if resp.Status != wire.StatusOK {
				t.Errorf("write %d: %v", i, resp.Status)
			}
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	total := int64(0)
	for _, s := range rig.servers[1:] {
		total += s.Stats().ReplicaAppends.Value()
	}
	if total != 50*3 {
		t.Fatalf("replica appends = %d, want 150", total)
	}
	// Replicas never land on the master itself.
	if rig.servers[0].ReplicaCount(rig.servers[0].ID()) != 0 {
		t.Fatal("master replicated to itself")
	}
}

func TestSegmentRollClosesAndFlushesReplicas(t *testing.T) {
	cfg := smallCfg(2)
	rig := newRig(t, 3, cfg)
	srv := rig.servers[0].Addr()
	rig.eng.Go("client", func(p *sim.Proc) {
		// Each entry ~1KB + overhead; 16KB segments roll every ~15 writes.
		for i := 0; i < 100; i++ {
			rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: ycsbKey(i), ValueLen: 1024})
		}
		p.Sleep(2 * sim.Second) // allow async flushes
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if rig.servers[0].Stats().SegmentsSealed.Value() == 0 {
		t.Fatal("no segments sealed despite rolling writes")
	}
	flushed := int64(0)
	for _, s := range rig.servers {
		flushed += s.Stats().SegmentsFlush.Value()
	}
	if flushed == 0 {
		t.Fatal("no replica flushed to disk")
	}
}

func TestBackupFailureReplacement(t *testing.T) {
	cfg := smallCfg(2)
	cfg.ReplicationTimeout = 50 * sim.Millisecond
	rig := newRig(t, 4, cfg)
	srv := rig.servers[0].Addr()
	rig.eng.Go("client", func(p *sim.Proc) {
		rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: []byte("a"), ValueLen: 64})
		// Kill every other server's candidacy except one by killing one
		// current backup; the master must replace it and keep writing.
		var victim *Server
		for _, s := range rig.servers[1:] {
			if s.ReplicaCount(rig.servers[0].ID()) > 0 {
				victim = s
				break
			}
		}
		if victim == nil {
			t.Error("no backup found")
			rig.eng.Stop()
			return
		}
		victim.Kill()
		resp := rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: []byte("b"), ValueLen: 64}).(*wire.WriteResp)
		if resp.Status != wire.StatusOK {
			t.Errorf("write after backup death: %v", resp.Status)
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if rig.servers[0].Stats().BackupFailures.Value() == 0 {
		t.Fatal("backup failure not detected")
	}
}

func TestCleanerReclaimsUnderPressure(t *testing.T) {
	cfg := smallCfg(0)
	cfg.Log.SegmentBytes = 8 << 10
	cfg.Log.TotalBytes = 96 << 10 // 12 segments
	cfg.CleanerThreshold = 0.6
	rig := newRig(t, 1, cfg)
	srv := rig.servers[0].Addr()
	rig.eng.Go("client", func(p *sim.Proc) {
		// Overwrite 8 keys repeatedly: log churns, cleaner must keep up.
		for round := 0; round < 200; round++ {
			k := []byte{byte(round % 8)}
			resp := rig.client.Call(p, srv, &wire.WriteReq{Table: 1, Key: k, ValueLen: 900}).(*wire.WriteResp)
			if resp.Status != wire.StatusOK {
				t.Errorf("write %d failed: %v (log full? cleaner stuck?)", round, resp.Status)
				break
			}
			p.Sleep(2 * sim.Millisecond)
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	s := rig.servers[0]
	if s.Stats().CleanerPasses.Value() == 0 || s.Stats().CleanerFreed.Value() == 0 {
		t.Fatalf("cleaner never ran: passes=%d freed=%d",
			s.Stats().CleanerPasses.Value(), s.Stats().CleanerFreed.Value())
	}
	// All 8 keys still readable with their latest size.
	if s.Log().MemoryUtilization() > 1.0 {
		t.Fatal("log over capacity")
	}
}

func TestSplitRanges(t *testing.T) {
	tablets := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: 999}}
	parts := SplitRanges(tablets, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	// Contiguous, non-overlapping, full coverage.
	if parts[0].FirstHash != 0 || parts[len(parts)-1].LastHash != 999 {
		t.Fatalf("bad bounds: %+v", parts)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].FirstHash != parts[i-1].LastHash+1 {
			t.Fatalf("gap between %d and %d: %+v", i-1, i, parts)
		}
	}
	if got := SplitRanges(nil, 3); got != nil {
		t.Fatal("nil tablets should give nil will")
	}
}

func TestKillReleasesPinnedCores(t *testing.T) {
	rig := newRig(t, 1, smallCfg(0))
	s := rig.servers[0]
	rig.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		s.Kill()
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if !s.Dead() {
		t.Fatal("server should be dead")
	}
	if s.node.PinnedCores() != 0 {
		t.Fatalf("pinned cores = %d after kill", s.node.PinnedCores())
	}
}

func ycsbKey(i int) []byte {
	return []byte{byte(i), byte(i >> 8), 'k', 'e', 'y'}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Workers+1 > machine.Grid5000Nancy().Cores {
		t.Fatal("workers + dispatch exceed node cores")
	}
	if cfg.Log.SegmentBytes != 8<<20 {
		t.Fatalf("segment size = %d, want 8MB (paper)", cfg.Log.SegmentBytes)
	}
	if cfg.Costs.InterferenceFactor < 1 {
		t.Fatal("interference factor must be >= 1")
	}
}

func TestEntryToObject(t *testing.T) {
	e := logstore.Entry{
		Type:     logstore.EntryObject,
		Table:    3,
		KeyHash:  hashtable.HashKey(3, []byte("kk")),
		Key:      []byte("kk"),
		ValueLen: 77,
		Version:  9,
	}
	o := entryToObject(e)
	if o.Table != 3 || o.ValueLen != 77 || o.Version != 9 || o.Tombstone {
		t.Fatalf("object = %+v", o)
	}
	e.Type = logstore.EntryTombstone
	if !entryToObject(e).Tombstone {
		t.Fatal("tombstone flag lost")
	}
}
