package core

import (
	"fmt"
	"slices"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
	"ramcloud/internal/ycsb"
)

// smallProfile shrinks segments and the failure detector for fast tests.
func smallProfile() Profile {
	p := DefaultProfile()
	p.Server.Log.SegmentBytes = 64 << 10
	p.Server.Log.TotalBytes = 64 << 20
	p.Server.PartitionBytes = 1 << 20
	return p
}

func TestClusterReadWriteDelete(t *testing.T) {
	eng := sim.New(1)
	cl := NewCluster(eng, smallProfile(), 3, 0)
	cl.Start()
	table := cl.CreateTable("t")
	c := cl.NewClient()
	var failures []string
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if err := c.Write(p, table, ycsb.Key(i), 1024, nil); err != nil {
				failures = append(failures, "write: "+err.Error())
			}
		}
		for i := 0; i < 50; i++ {
			n, _, err := c.Read(p, table, ycsb.Key(i))
			if err != nil || n != 1024 {
				failures = append(failures, "read mismatch")
			}
		}
		if _, _, err := c.Read(p, table, []byte("missing")); err != client.ErrNotFound {
			failures = append(failures, "expected ErrNotFound")
		}
		if err := c.Delete(p, table, ycsb.Key(3)); err != nil {
			failures = append(failures, "delete: "+err.Error())
		}
		if _, _, err := c.Read(p, table, ycsb.Key(3)); err != client.ErrNotFound {
			failures = append(failures, "read after delete should fail")
		}
		cl.StopMetering()
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
}

func TestClusterReplicationCreatesReplicas(t *testing.T) {
	eng := sim.New(2)
	cl := NewCluster(eng, smallProfile(), 4, 3)
	cl.Start()
	table := cl.CreateTable("t")
	c := cl.NewClient()
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := c.Write(p, table, ycsb.Key(i), 1024, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		cl.StopMetering()
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	// Every master's open/sealed segments must have replicas on peers.
	totalReplicaObjects := int64(0)
	for _, s := range cl.Servers {
		totalReplicaObjects += s.Stats().ReplicaAppends.Value()
	}
	if totalReplicaObjects != 200*3 {
		t.Fatalf("replica appends = %d, want %d", totalReplicaObjects, 200*3)
	}
}

func TestBulkLoadMatchesClientView(t *testing.T) {
	eng := sim.New(3)
	cl := NewCluster(eng, smallProfile(), 3, 2)
	cl.Start()
	table := cl.CreateTable("t")
	cl.BulkLoad(table, 300, 512)
	c := cl.NewClient()
	bad := 0
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			n, _, err := c.Read(p, table, ycsb.Key(i))
			if err != nil || n != 512 {
				bad++
			}
		}
		cl.StopMetering()
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	if bad != 0 {
		t.Fatalf("%d of 300 bulk-loaded records unreadable", bad)
	}
	// Bulk load must have created replicas on backups too.
	replicas := 0
	for _, s := range cl.Servers {
		for _, other := range cl.Servers {
			if s != other {
				replicas += s.ReplicaCount(other.ID())
			}
		}
	}
	if replicas == 0 {
		t.Fatal("bulk load created no replicas")
	}
}

// TestBulkLoadKeysAreSealedSlabSlices: bulk-loaded keys are written into
// one reused buffer, so each log must have copied its record's key, and
// what the log hands back is a view capped at the key's own length — an
// append to one may not write into its neighbour.
func TestBulkLoadKeysAreSealedSlabSlices(t *testing.T) {
	const records = 5000
	eng := sim.New(3)
	cl := NewCluster(eng, smallProfile(), 3, 0)
	cl.Start()
	table := cl.CreateTable("t")
	cl.BulkLoad(table, records, 64)
	eng.Shutdown()

	seen := make(map[string]bool, records)
	for _, s := range cl.Servers {
		log := s.Log()
		for id := uint64(0); id <= log.Head().ID(); id++ {
			seg, ok := log.Segment(id)
			if !ok {
				continue
			}
			for i := 0; i < seg.Entries(); i++ {
				e, err := seg.EntryAt(i)
				if err != nil {
					t.Fatal(err)
				}
				if cap(e.Key) != len(e.Key) {
					t.Fatalf("key %q has capacity %d beyond its length %d", e.Key, cap(e.Key), len(e.Key))
				}
				seen[string(e.Key)] = true
			}
		}
	}
	if len(seen) != records {
		t.Fatalf("%d distinct keys loaded, want %d", len(seen), records)
	}
	for i := 0; i < records; i++ {
		if !seen[string(ycsb.Key(i))] {
			t.Fatalf("key %q missing from the logs", ycsb.Key(i))
		}
	}
}

// TestBulkLoadPlacementMatchesRecordOrder: BulkLoad loads one master at a
// time and places segments afterwards, yet every master's segments end up
// on the backups, with the bytes and entry counts, that loading record by
// record gives — the reference loop below places each segment the moment
// a record opens it, as the loader once did, and refills it at the end.
func TestBulkLoadPlacementMatchesRecordOrder(t *testing.T) {
	p := smallProfile()
	p.Server.Log.SegmentBytes = 16 << 10
	for _, c := range []struct{ servers, rf, records int }{
		{3, 1, 3000}, {3, 2, 2000}, {4, 1, 4000}, {4, 2, 3000}, {5, 3, 4000}, {6, 4, 5000}, {8, 2, 4000}, {12, 3, 6000}, {20, 4, 8000},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%d servers RF %d seed %d", c.servers, c.rf, seed)
			loaded := placementsOf(t, p, c.servers, c.rf, seed, func(cl *Cluster, table uint64) {
				cl.BulkLoad(table, c.records, 300)
			})
			reference := placementsOf(t, p, c.servers, c.rf, seed, func(cl *Cluster, table uint64) {
				loadRecordByRecord(t, cl, table, c.records, 300)
			})
			if len(loaded) == 0 {
				t.Fatalf("%s: no replicas placed", name)
			}
			if fmt.Sprint(loaded) != fmt.Sprint(reference) {
				t.Fatalf("%s: BulkLoad placed\n%v\nloading record by record placed\n%v", name, loaded, reference)
			}
		}
	}
}

// loadRecordByRecord loads records in record order, placing a segment's
// replicas as soon as a record opens it and filling every segment's again
// once all are loaded.
func loadRecordByRecord(t *testing.T, cl *Cluster, table uint64, records, size int) {
	type written struct {
		master  int32
		segment uint64
	}
	reg := cl.Coord.Registry()
	last := map[int32]uint64{}
	var all []written
	for i := 0; i < records; i++ {
		key := ycsb.Key(i)
		hash := hashtable.HashKey(table, key)
		owner := store.Find(cl.Coord.TabletMapDirect(), table, hash).Master
		master := reg(simnet.NodeID(owner))
		segment, err := master.Load(table, key, hash, uint32(size))
		if err != nil {
			t.Fatal(err)
		}
		if last[owner] != segment {
			last[owner] = segment
			master.PlaceReplicas(segment)
			all = append(all, written{owner, segment})
		}
	}
	for _, w := range all {
		reg(simnet.NodeID(w.master)).PlaceReplicas(w.segment)
	}
}

// placementsOf builds a cluster, loads it with load and lists, for every
// master's segment, the backups holding a replica and the replica's bytes
// as each backup's inventory reports them over the fabric, then every
// backup's replica appends.
func placementsOf(t *testing.T, p Profile, servers, rf int, seed int64, load func(*Cluster, uint64)) []string {
	eng := sim.New(seed)
	cl := NewCluster(eng, p, servers, rf)
	cl.Start()
	table := cl.CreateTable("t")
	load(cl, table)
	ep := rpc.NewEndpoint(eng, cl.Net, ClientAddrBase)
	var out []string
	eng.Go("inventory", func(proc *sim.Proc) {
		for _, b := range cl.Servers {
			for _, m := range cl.Servers {
				resp, ok := ep.CallTimeout(proc, b.Addr(), &wire.SegmentInventoryReq{Master: m.ID()}, sim.Second)
				if !ok {
					t.Errorf("inventory of backup %d timed out", b.ID())
					continue
				}
				for _, si := range resp.(*wire.SegmentInventoryResp).Segments {
					out = append(out, fmt.Sprintf("master %d segment %d on %d: %d bytes", m.ID(), si.Segment, b.ID(), si.Bytes))
				}
			}
			out = append(out, fmt.Sprintf("backup %d: %d appends", b.ID(), b.Stats().ReplicaAppends.Value()))
		}
		cl.StopMetering()
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	slices.Sort(out)
	return out
}

func TestCrashRecoveryPreservesAckedWrites(t *testing.T) {
	eng := sim.New(4)
	cl := NewCluster(eng, smallProfile(), 4, 2)
	cl.Start()
	table := cl.CreateTable("t")
	cl.BulkLoad(table, 400, 512)

	c := cl.NewClient()
	var unreadable []int
	var recovered bool
	eng.Go("app", func(p *sim.Proc) {
		// Overwrite some records through the RPC path so both loaded and
		// written data must survive.
		for i := 0; i < 100; i++ {
			if err := c.Write(p, table, ycsb.Key(i), 256, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		cl.KillServer(1)
		// Wait for recovery to complete.
		for len(cl.Coord.Records()) == 0 {
			p.Sleep(200 * sim.Millisecond)
			if p.Now() > sim.Time(2*sim.Minute) {
				t.Error("recovery did not complete within 2 minutes")
				break
			}
		}
		recovered = len(cl.Coord.Records()) > 0
		for i := 0; i < 400; i++ {
			want := uint32(512)
			if i < 100 {
				want = 256
			}
			n, _, err := c.Read(p, table, ycsb.Key(i))
			if err != nil || n != want {
				unreadable = append(unreadable, i)
			}
		}
		cl.StopMetering()
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	if !recovered {
		t.Fatal("no recovery record")
	}
	if len(unreadable) != 0 {
		t.Fatalf("%d records lost after crash recovery: %v", len(unreadable), unreadable[:min(10, len(unreadable))])
	}
}

func TestScenarioRunBasics(t *testing.T) {
	res := Run(Scenario{
		Name:              "smoke",
		Profile:           smallProfile(),
		Servers:           2,
		Clients:           4,
		RF:                0,
		Workload:          ycsb.WorkloadB(200, 1024),
		RequestsPerClient: 500,
		Seed:              7,
	})
	if res.TotalOps != 4*500 {
		t.Fatalf("ops = %d", res.TotalOps)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.AvgPowerPerServer < 61 || res.AvgPowerPerServer > 131 {
		t.Fatalf("power = %v W implausible", res.AvgPowerPerServer)
	}
	if res.OpsPerJoule <= 0 {
		t.Fatal("efficiency not positive")
	}
	if res.ReadLatency.Count() == 0 || res.WriteLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	if res.Crashed {
		t.Fatal("run should not be marked crashed")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	s := Scenario{
		Name:              "det",
		Profile:           smallProfile(),
		Servers:           2,
		Clients:           3,
		Workload:          ycsb.WorkloadA(100, 1024),
		RequestsPerClient: 200,
		Seed:              99,
	}
	a := Run(s)
	b := Run(s)
	if a.TotalOps != b.TotalOps || a.Duration != b.Duration || a.TotalJoules != b.TotalJoules {
		t.Fatalf("same seed diverged: ops %d/%d dur %v/%v joules %v/%v",
			a.TotalOps, b.TotalOps, a.Duration, b.Duration, a.TotalJoules, b.TotalJoules)
	}
	s.Seed = 100
	c := Run(s)
	if a.Duration == c.Duration && a.TotalJoules == c.TotalJoules {
		t.Fatal("different seeds produced identical run; randomness unplumbed")
	}
}

func TestScenarioWithKillMeasuresRecovery(t *testing.T) {
	res := Run(Scenario{
		Name:        "kill",
		Profile:     smallProfile(),
		Servers:     4,
		Clients:     0,
		RF:          2,
		Workload:    ycsb.Workload{RecordCount: 500, RecordSize: 512},
		KillAfter:   2 * sim.Second,
		KillTarget:  1,
		IdleSeconds: 2,
		Seed:        5,
	})
	if !res.Recovered {
		t.Fatal("recovery did not complete")
	}
	if res.RecoveryTime <= 0 {
		t.Fatalf("recovery time = %v", res.RecoveryTime)
	}
	if res.CPUSeries.Len() == 0 || res.PowerSeries.Len() == 0 {
		t.Fatal("series empty")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkBulkLoad loads 100,000 1 KiB records into a 10-server cluster
// with the paper's 8 MB segments, without replicas and at RF 4: what every
// reproduced figure does before its first operation.
func BenchmarkBulkLoad(b *testing.B) {
	for _, rf := range []int{0, 4} {
		b.Run(fmt.Sprintf("rf%d", rf), func(b *testing.B) {
			const records = 100_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := sim.New(int64(i + 1))
				cl := NewCluster(eng, DefaultProfile(), 10, rf)
				cl.Start()
				table := cl.CreateTable("usertable")
				b.StartTimer()
				cl.BulkLoad(table, records, 1024)
				b.StopTimer()
				eng.Shutdown()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
