package server

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"ramcloud/internal/hashtable"
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

func newRig(t testing.TB, n int, cfg Config) *testRig {
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
		rp := s.newReplayer(p, 1)
		replayed := func() bool {
			n := s.Stats().ObjectsReplay.Value()
			rp.replay([]wire.Object{old})
			return s.Stats().ObjectsReplay.Value() > n
		}
		if !replayed() {
			failures = append(failures, "first replay refused")
		}
		w := rig.client.Call(p, s.Addr(), &wire.WriteReq{Table: 1, Key: key, ValueLen: 20}).(*wire.WriteResp)
		if w.Status != wire.StatusOK || w.Version <= old.Version {
			failures = append(failures, fmt.Sprintf("write after replay acknowledged at version %d, want above %d", w.Version, old.Version))
		}
		if replayed() {
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
	// Every backup's replica reads back the written keys and versions in
	// write order.
	head := &wire.GetRecoveryDataReq{Master: rig.servers[0].ID(), Segment: rig.servers[0].Log().Head().ID(), LastHash: ^uint64(0)}
	for _, s := range rig.servers[1:] {
		resp, _, _ := s.backups.RecoveryData(head)
		if resp.Status != wire.StatusOK || len(resp.Objects) != 50 {
			t.Fatalf("backup %d holds no 50-entry replica of the head segment", s.ID())
		}
		for i, o := range resp.Objects {
			if !bytes.Equal(o.Key, []byte{byte(i)}) || o.Version != uint64(i+1) || o.ValueLen != 64 {
				t.Fatalf("backup %d entry %d: key %v version %d ValueLen %d, want key [%d] version %d ValueLen 64",
					s.ID(), i, o.Key, o.Version, o.ValueLen, i, i+1)
			}
		}
	}
}

// TestTwoBackupsFailInOneFanOut kills two of the head segment's three
// backups and writes once. Each timeout must replace the backup that timed
// out: handleBackupFailure rewrites the segment's backup set in place, so
// a wait loop that indexed the set named the substitute it had just
// opened, declared it dead, and left a dead backup in the set.
func TestTwoBackupsFailInOneFanOut(t *testing.T) {
	cfg := smallCfg(3)
	cfg.ReplicationTimeout = 50 * sim.Millisecond
	rig := newRig(t, 6, cfg)
	m := rig.servers[0]
	var head uint64
	rig.eng.Go("client", func(p *sim.Proc) {
		rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: []byte("a"), ValueLen: 64})
		head = m.Log().Head().ID()
		victims := append([]int32(nil), m.reps.Set(head)[1:]...)
		for _, s := range rig.servers {
			if slices.Contains(victims, s.ID()) {
				s.Kill()
			}
		}
		resp := rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: []byte("b"), ValueLen: 64}).(*wire.WriteResp)
		if resp.Status != wire.StatusOK {
			t.Errorf("write after two backup deaths: %v", resp.Status)
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if got := m.Stats().BackupFailures.Value(); got != 2 {
		t.Errorf("BackupFailures = %d, want 2", got)
	}
	set := m.reps.Set(head)
	if len(set) != 3 {
		t.Errorf("head segment has %d backups, want 3: %v", len(set), set)
	}
	for _, s := range rig.servers[1:] {
		if s.Dead() && slices.Contains(set, s.ID()) {
			t.Errorf("dead backup %d is still in the head segment's set %v", s.Addr(), set)
		}
		if !s.Dead() && m.reps.Dead(s.ID()) {
			t.Errorf("live backup %d was declared dead", s.Addr())
		}
	}
}

// TestReplayChainReachesEveryBackup kills the second of the head
// segment's three backups and re-replicates one replayed object through
// the serial chain. The third backup must receive it, and the substitute
// must hold it once: the chain reads the live backup set, which
// handleBackupFailure rewrites in place, so today it sends to the
// substitute (which already has the object from the resend) instead, and
// the substitute's replica outgrows the segment. That double append is
// what the -scale 1 segment sweep shows on recovery masters' heads.
func TestReplayChainReachesEveryBackup(t *testing.T) {
	t.Skip("known fault: fixing it moves the recovery renderings (fig9a, fig9b, fig10, fig11a, fig11b); it belongs to the golden re-baseline, ROADMAP 3(c)")
	cfg := smallCfg(3)
	cfg.ReplicationTimeout = 50 * sim.Millisecond
	rig := newRig(t, 6, cfg)
	m := rig.servers[0]
	var third *Server
	rig.eng.Go("replay", func(p *sim.Proc) {
		rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: []byte("a"), ValueLen: 64})
		set := m.reps.Set(m.Log().Head().ID())
		for _, s := range rig.servers {
			switch s.ID() {
			case set[1]:
				s.Kill()
			case set[2]:
				third = s
			}
		}
		key := []byte("b")
		obj := wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, key), Key: key, ValueLen: 64, Version: 100}
		m.newReplayer(p, 1).replay([]wire.Object{obj})
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if got := third.Stats().ReplicaAppends.Value(); got != 2 {
		t.Fatalf("the backup after the failed one holds %d of the 2 objects", got)
	}
	head := m.Log().Head()
	set := m.reps.Set(head.ID())
	sub := m.registry(simnet.NodeID(set[len(set)-1]))
	inv := sub.backups.Inventory(&wire.SegmentInventoryReq{Master: m.ID()})
	if len(inv.Segments) != 1 || int(inv.Segments[0].Bytes) != head.Accounted() {
		t.Fatalf("the substitute holds %+v; the head is %d bytes", inv.Segments, head.Accounted())
	}
}

// TestTimedOutResendKeepsSubstitute kills one of the open segment's two
// backups, so the next write's fan-out times out and the master resends
// the segment to a substitute. The segment holds 500 1 KiB objects, which
// keeps the substitute busy past the 2 ms replication timeout, so the
// resend times out too, though the substitute takes it. The master must
// then count the substitute among the segment's backups (or declare it
// dead); today it does neither, and the head runs on with a replica the
// master never counts, closes or frees.
func TestTimedOutResendKeepsSubstitute(t *testing.T) {
	t.Skip("known fault: fixing it moves the segment sweep's rendering (seg); it belongs to the golden re-baseline, ROADMAP 3(b)")
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	cfg.ReplicationTimeout = 2 * sim.Millisecond
	rig := newRig(t, 4, cfg)
	m := rig.servers[0]
	const n = 500
	load(t, m, n, 1024)
	var victim, substitute *Server
	for _, s := range rig.servers[1:] {
		switch {
		case !slices.Contains(m.reps.Set(1), s.ID()):
			substitute = s
		case victim == nil:
			victim = s
		}
	}
	rig.eng.Go("client", func(p *sim.Proc) {
		victim.Kill()
		if resp := rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: ycsbKey(n), ValueLen: 1024}).(*wire.WriteResp); resp.Status != wire.StatusOK {
			t.Errorf("write after backup %d died: %v", victim.Addr(), resp.Status)
		}
		p.Sleep(100 * sim.Millisecond) // the substitute works off the resend
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if m.Stats().BackupFailures.Value() != 1 {
		t.Fatalf("%d backup failures, want the victim's", m.Stats().BackupFailures.Value())
	}
	held, _, _ := substitute.backups.RecoveryData(&wire.GetRecoveryDataReq{Master: m.ID(), Segment: 1, LastHash: ^uint64(0)})
	if held.Status != wire.StatusOK || len(held.Objects) < n {
		t.Fatalf("the substitute holds %v, %d objects of segment 1: it did not take the resend", held.Status, len(held.Objects))
	}
	set := m.reps.Set(1)
	if !slices.Contains(set, substitute.ID()) && !m.reps.Dead(substitute.ID()) {
		t.Fatalf("segment 1's backups are %v: the substitute %d took the resend but is neither among them nor declared dead",
			set, substitute.Addr())
	}
}

// TestReplicationAllocs pins what a write, a read and a replayed object
// cost the host. At RF 0 a write and a read each cost three objects, the
// test client's request and key and the master's response, and a replayed
// object none; no RPC pays for its reply future, which its endpoint
// reuses. At RF k a write and a replayed object each cost two objects
// more, the one-object list replicated and one request for the whole
// fan-out or chain. Neither depends on k: the acks are shared constants,
// the ack futures are reused and each backup copies what it is sent into
// its replica's blocks, so nothing is paid per backup.
func TestReplicationAllocs(t *testing.T) {
	write0, read0, replay0 := writeAllocs(t, 0), readAllocs(t), replayAllocs(t, 0)
	t.Logf("RF 0: %.3f objects per write, %.3f per read, %.3f per replayed object", write0, read0, replay0)
	for _, c := range []struct {
		what      string
		got, want float64
	}{{"a write", write0, 3}, {"a read", read0, 3}, {"a replayed object", replay0, 0}} {
		if math.Abs(c.got-c.want) > 0.1 {
			t.Errorf("RF 0: %s allocates %.3f objects, want %.0f", c.what, c.got, c.want)
		}
	}
	for _, k := range []int{1, 3, 4} {
		write, replay := writeAllocs(t, k)-write0, replayAllocs(t, k)-replay0
		t.Logf("RF %d: +%.3f per write, +%.3f per replayed object", k, write, replay)
		if math.Abs(write-2) > 0.1 {
			t.Errorf("RF %d: a write allocates %.3f objects more than at RF 0, want 2", k, write)
		}
		if math.Abs(replay-2) > 0.1 {
			t.Errorf("RF %d: a replayed object allocates %.3f objects more than at RF 0, want 2", k, replay)
		}
	}
}

// TestMultiWriteAllocs pins what a 32-item write batch costs the host end
// to end, client, master and backups, at RF 0 and RF 3: the request is
// the client's own and is sent again, so what is counted is the master's
// result list, key hashes and response, and at RF 3 one list of the
// appended objects and one request for the fan-out. Segments are 8 MB, so
// a roll is one batch in hundreds.
func TestMultiWriteAllocs(t *testing.T) {
	for _, c := range []struct {
		rf  int
		max float64
	}{{0, 3}, {3, 5}} {
		got := multiWriteAllocs(t, c.rf)
		t.Logf("RF %d: %.3f objects per 32-item batch", c.rf, got)
		if got > c.max+0.1 {
			t.Errorf("RF %d: a 32-item batch allocates %.3f objects, want at most %.0f", c.rf, got, c.max)
		}
	}
}

// multiWriteAllocs returns the objects one 32-item batch allocates end to
// end at RF rf.
func multiWriteAllocs(t *testing.T, rf int) float64 {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = rf
	rig := newRig(t, 5, cfg)
	defer rig.eng.Shutdown()
	m := rig.servers[0]
	req := &wire.MultiWriteReq{Items: make([]wire.MultiWriteItem, 32)}
	for i := range req.Items {
		req.Items[i] = wire.MultiWriteItem{Table: 1, Key: ycsbKey(i), ValueLen: 100}
	}
	rig.eng.Go("client", func(p *sim.Proc) {
		for {
			rig.client.Call(p, m.Addr(), req)
		}
	})
	return 32 * allocsPerStep(t, rig.eng, m.Stats().WritesOK.Value)
}

// TestMultiWriteReplicatesSegmentRuns: one write batch that rolls the
// head twice or more reaches each segment's backups as the run of items
// that landed in that segment, in batch order and with their values.
func TestMultiWriteReplicatesSegmentRuns(t *testing.T) {
	rig := newRig(t, 4, smallCfg(2)) // 16 KiB segments: about 15 items each
	m := rig.servers[0]
	items := make([]wire.MultiWriteItem, 40)
	for i := range items {
		v := bytes.Repeat([]byte{byte(i)}, 1024)
		items[i] = wire.MultiWriteItem{Table: 1, Key: ycsbKey(i), ValueLen: uint32(len(v)), Value: v}
	}
	rig.eng.Go("client", func(p *sim.Proc) {
		resp := rig.client.Call(p, m.Addr(), &wire.MultiWriteReq{Items: items}).(*wire.MultiWriteResp)
		for i, it := range resp.Items {
			if it.Status != wire.StatusOK || it.Version != uint64(i+1) {
				t.Errorf("item %d: %v at version %d", i, it.Status, it.Version)
			}
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	head := m.Log().Head().ID()
	if head < 3 {
		t.Fatalf("the batch filled %d segments; want a batch that rolls at least twice", head)
	}
	next := 0 // the batch index the next segment's run starts at
	for seg := uint64(1); seg <= head; seg++ {
		landed, _ := m.Log().Segment(seg)
		if len(m.reps.Set(seg)) != 2 {
			t.Fatalf("segment %d has backups %v, want 2", seg, m.reps.Set(seg))
		}
		for _, b := range m.reps.Set(seg) {
			resp, _, _ := m.registry(simnet.NodeID(b)).backups.RecoveryData(&wire.GetRecoveryDataReq{Master: m.ID(), Segment: seg, LastHash: ^uint64(0)})
			if resp.Status != wire.StatusOK || len(resp.Objects) != landed.Entries() {
				t.Fatalf("backup %d holds %d objects of segment %d (%v); %d landed there", b, len(resp.Objects), seg, resp.Status, landed.Entries())
			}
			for j, o := range resp.Objects {
				it := items[next+j]
				if !bytes.Equal(o.Key, it.Key) || o.Version != uint64(next+j+1) || !bytes.Equal(o.Value, it.Value) {
					t.Fatalf("backup %d segment %d object %d: key %v version %d %d value bytes, want item %d (key %v, %d bytes)",
						b, seg, j, o.Key, o.Version, len(o.Value), next+j, it.Key, len(it.Value))
				}
			}
		}
		next += landed.Entries()
	}
	if next != len(items) {
		t.Fatalf("%d items landed in segments 1..%d, want %d", next, head, len(items))
	}
}

// allocsPerStep runs the engine in 20 ms slices, once to warm up and then
// under testing.AllocsPerRun, and returns the objects allocated per step
// counted by steps.
func allocsPerStep(t *testing.T, eng *sim.Engine, steps func() int64) float64 {
	t.Helper()
	slice := func() { eng.RunUntil(eng.Now().Add(20 * sim.Millisecond)) }
	slice()
	before := steps()
	allocs := testing.AllocsPerRun(20, slice)
	perSlice := float64(steps()-before) / 21
	if perSlice < 50 {
		t.Fatalf("%.0f steps per slice: the loop is not running", perSlice)
	}
	return allocs / perSlice
}

// writeAllocs returns the objects one steady-state write allocates end to
// end at RF rf: client, master and backups. Segments are 8 MB, so no roll
// falls inside the measurement.
func writeAllocs(t *testing.T, rf int) float64 {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = rf
	rig := newRig(t, 5, cfg)
	defer rig.eng.Shutdown()
	m := rig.servers[0]
	rig.eng.Go("client", func(p *sim.Proc) {
		for i := 0; ; i++ {
			rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: ycsbKey(i % 64), ValueLen: 100})
		}
	})
	return allocsPerStep(t, rig.eng, m.Stats().WritesOK.Value)
}

// readAllocs returns the objects one read of a present key allocates end
// to end at RF 0.
func readAllocs(t *testing.T) float64 {
	rig := newRig(t, 1, DefaultConfig())
	defer rig.eng.Shutdown()
	m := rig.servers[0]
	load(t, m, 64, 100)
	rig.eng.Go("client", func(p *sim.Proc) {
		for i := 0; ; i++ {
			rig.client.Call(p, m.Addr(), &wire.ReadReq{Table: 1, Key: ycsbKey(i % 64)})
		}
	})
	return allocsPerStep(t, rig.eng, m.Stats().ReadsOK.Value)
}

// load bulk-loads keys 0..n-1 of table 1 into m, then places the replicas
// of each segment it wrote in the order it wrote them.
func load(t testing.TB, m *Server, n int, valueLen uint32) {
	t.Helper()
	var segments []uint64
	for i := 0; i < n; i++ {
		key := ycsbKey(i)
		seg, err := m.Load(1, key, hashtable.HashKey(1, key), valueLen)
		if err != nil {
			t.Fatal(err)
		}
		if len(segments) == 0 || segments[len(segments)-1] != seg {
			segments = append(segments, seg)
		}
	}
	for _, seg := range segments {
		m.PlaceReplicas(seg)
	}
}

// replayAllocs returns the objects one replayed object allocates while a
// recovery master replays a partition of 30,000 objects and re-replicates
// it at RF rf. The crashed master's data is bulk-loaded at RF 1.
func replayAllocs(t *testing.T, rf int) float64 {
	const n = 30_000
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 1
	rig := newRig(t, 6, cfg)
	defer rig.eng.Shutdown()
	crashed, rm := rig.servers[0], rig.servers[1]
	load(t, crashed, n, 100)
	var locs []wire.SegmentLoc
	for id := uint64(1); id <= crashed.Log().Head().ID(); id++ {
		locs = append(locs, wire.SegmentLoc{Segment: id, Backup: crashed.reps.Set(id)[0]})
	}
	rm.cfg.ReplicationFactor = rf
	rig.eng.Go("replay", func(p *sim.Proc) {
		rm.replayPartition(p, &wire.RecoverReq{Crashed: crashed.ID(), LastHash: ^uint64(0), Segments: locs})
	})
	// Run past the segment fetch and the first replica opens.
	for rm.Stats().ObjectsReplay.Value() < 100 {
		rig.eng.RunUntil(rig.eng.Now().Add(sim.Millisecond))
	}
	perObject := allocsPerStep(t, rig.eng, rm.Stats().ObjectsReplay.Value)
	if rm.Stats().ObjectsReplay.Value() >= n {
		t.Fatal("the replay finished inside the measurement")
	}
	return perObject
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

// TestTimedOutResendIsNotAppendedTwice: a substitute backup whose resend
// of the open segment timed out at the master still took it, and is still
// a candidate. When the segment's other backup dies too, the master picks
// it again and resends the segment whole; the substitute's replica must
// then hold the segment once, not the first resend with the second
// appended behind it. Segment 1 holds 500 bulk-loaded 1 KiB objects, so a
// resend keeps a backup busy past the 2 ms replication timeout.
func TestTimedOutResendIsNotAppendedTwice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	cfg.ReplicationTimeout = 2 * sim.Millisecond
	rig := newRig(t, 4, cfg)
	m := rig.servers[0]
	const n = 500
	load(t, m, n, 1024)
	var substitute *Server
	for _, s := range rig.servers[1:] {
		if !slices.Contains(m.reps.Set(1), s.ID()) {
			substitute = s
		}
	}
	rig.eng.Go("client", func(p *sim.Proc) {
		for i, b := range slices.Clone(m.reps.Set(1)) {
			m.registry(simnet.NodeID(b)).Kill()
			if resp := rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: ycsbKey(n + i), ValueLen: 1024}).(*wire.WriteResp); resp.Status != wire.StatusOK {
				t.Errorf("write after backup %d died: %v", b, resp.Status)
			}
			p.Sleep(100 * sim.Millisecond) // the substitute works off the resend
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	if m.Stats().BackupFailures.Value() != 2 {
		t.Fatalf("%d backup failures, want 2", m.Stats().BackupFailures.Value())
	}
	seg, _ := m.Log().Segment(1)
	inv := substitute.backups.Inventory(&wire.SegmentInventoryReq{Master: m.ID()})
	if len(inv.Segments) != 1 || int(inv.Segments[0].Bytes) != seg.Accounted() {
		t.Fatalf("the substitute holds %+v of master %d; its segment 1 is %d bytes", inv.Segments, m.ID(), seg.Accounted())
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
