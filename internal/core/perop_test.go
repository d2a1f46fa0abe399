package core

import (
	"fmt"
	"math"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// opCost is what one operation of a steady closed loop costs the host:
// engine events run, procs resumed and objects allocated, end to end.
type opCost struct {
	events, resumes, allocs float64
}

// closedLoop starts one closed-loop client of w, seeded 1, against a
// started cluster of servers at RF rf that holds w's records: the client
// runs opts.Requests operations (batches of opts.BatchSize when set) and
// stops the engine.
func closedLoop(tb testing.TB, servers, rf int, w ycsb.Workload, opts ycsb.RunOptions) (*sim.Engine, *client.Client) {
	tb.Helper()
	eng := sim.New(1)
	cl := NewCluster(eng, DefaultProfile(), servers, rf)
	cl.Start()
	opts.Table = cl.CreateTable("usertable")
	opts.Seed = 1
	cl.BulkLoad(opts.Table, w.RecordCount, w.RecordSize)
	c := cl.NewClient()
	eng.Go("client", func(p *sim.Proc) {
		ycsb.RunClient(p, c, w, opts)
		eng.Stop()
	})
	return eng, c
}

// measureOp runs one closed-loop client against a cluster of servers at
// RF rf, holding 1,000 records of 100 bytes, and returns the cost of one
// of its operations in steady state: the engine's counts and the heap
// objects over 21 slices of d, divided by the operations completed in
// them. A batched client's operation is one batch.
func measureOp(t *testing.T, servers, rf int, w ycsb.Workload, batch int, d sim.Duration) opCost {
	t.Helper()
	eng, c := closedLoop(t, servers, rf, w, ycsb.RunOptions{Requests: 1 << 30, BatchSize: batch})
	defer eng.Shutdown()
	slice := func() { eng.RunUntil(eng.Now().Add(d)) }
	slice()
	slice()
	ops0, counts0 := c.Stats().Ops.Value(), eng.Counts()
	allocs := testing.AllocsPerRun(20, slice)
	counts := eng.Counts()
	ops := float64(c.Stats().Ops.Value()-ops0) / float64(max(batch, 1))
	if ops < 1000 {
		t.Fatalf("%.0f ops in 21 slices: the loop is not running", ops)
	}
	return opCost{
		events:  float64(counts.Events-counts0.Events) / ops,
		resumes: float64(counts.Resumes-counts0.Resumes) / ops,
		allocs:  allocs * 21 / ops,
	}
}

// TestEngineCountsPerOp pins what the engine runs for one closed-loop
// operation through the whole stack, client, fabric, master and backups:
// a read, a write at RF 0, 1 and 4, a 32-item multi-read, and a 32-item
// multi-write at RF 1, whose slices are longer so that as many batches
// land in them. A single operation's client is engine callbacks and
// resumes no proc, and so is a master's write or write batch: its log
// head, service time, posts and acks are callbacks, and only a roll at
// RF > 0 (one write in thousands) resumes the worker's proc. The batched
// client keeps its proc: two resumes a batch, and a little more when the
// batch goes to two masters.
func TestEngineCountsPerOp(t *testing.T) {
	records := func(read, update float64) ycsb.Workload {
		return ycsb.Workload{ReadProp: read, UpdateProp: update, RecordCount: 1000, RecordSize: 100, Dist: ycsb.Uniform}
	}
	const ms = sim.Millisecond
	for _, c := range []struct {
		name        string
		servers, rf int
		w           ycsb.Workload
		batch       int
		slice       sim.Duration
		want        opCost
	}{
		{"read", 1, 0, records(1, 0), 0, 20 * ms, opCost{8, 0, 3}},
		{"write rf0", 1, 0, records(0, 1), 0, 20 * ms, opCost{8, 0, 3}},
		{"write rf1", 2, 1, records(0, 1), 0, 20 * ms, opCost{16.02, 0.01, 5.01}},
		{"write rf4", 5, 4, records(0, 1), 0, 20 * ms, opCost{37.1, 0.05, 5.03}},
		{"multiread32", 1, 0, records(1, 0), 32, 20 * ms, opCost{8.01, 2, 45}},
		{"multiwrite32 rf1", 2, 1, records(0, 1), 32, 60 * ms, opCost{30.25, 2.24, 55}},
	} {
		checkCost(t, c.name, "op", measureOp(t, c.servers, c.rf, c.w, c.batch, c.slice), c.want)
	}
}

// checkCost logs what one unit of name cost and holds each count to want
// within 0.05.
func checkCost(t *testing.T, name, unit string, got, want opCost) {
	t.Helper()
	t.Logf("%s: %.3f events, %.3f resumes, %.3f allocs per %s", name, got.events, got.resumes, got.allocs, unit)
	for _, v := range []struct {
		what      string
		got, want float64
	}{{"events", got.events, want.events}, {"resumes", got.resumes, want.resumes}, {"allocs", got.allocs, want.allocs}} {
		if math.Abs(v.got-v.want) > 0.05 {
			t.Errorf("%s: %.3f %s per %s, want %.2f", name, v.got, v.what, unit, v.want)
		}
	}
}

// measureReplay kills one of nine servers at RF rf, each holding about
// 20,000 of 180,000 records of 100 bytes, and returns the cost of one
// object its recovery masters replay: the engine's counts and the heap
// objects over 21 slices of 5 ms once the replay is under way, divided by
// the objects replayed in them, cluster-wide.
func measureReplay(t *testing.T, rf int) opCost {
	t.Helper()
	eng := sim.New(1)
	defer eng.Shutdown()
	cl := NewCluster(eng, DefaultProfile(), 9, rf)
	cl.Start()
	cl.BulkLoad(cl.CreateTable("usertable"), 180_000, 100)
	replayed := func() int64 {
		var n int64
		for _, s := range cl.Servers {
			n += s.Stats().ObjectsReplay.Value()
		}
		return n
	}
	eng.RunUntil(eng.Now().Add(100 * sim.Millisecond))
	cl.KillServer(4)
	for replayed() < 500 {
		if eng.Now() > sim.Time(30*sim.Second) {
			t.Fatal("no replay under way 30 s into the run")
		}
		eng.RunUntil(eng.Now().Add(5 * sim.Millisecond))
	}
	slice := func() { eng.RunUntil(eng.Now().Add(5 * sim.Millisecond)) }
	objs0, counts0 := replayed(), eng.Counts()
	allocs := testing.AllocsPerRun(20, slice)
	counts := eng.Counts()
	objs := float64(replayed() - objs0)
	if objs < 1000 || replayed() > 19_000 {
		t.Fatalf("%.0f objects replayed in 21 slices, %d in all: the replay is not running throughout", objs, replayed())
	}
	return opCost{
		events:  float64(counts.Events-counts0.Events) / objs,
		resumes: float64(counts.Resumes-counts0.Resumes) / objs,
		allocs:  allocs * 21 / objs,
	}
}

// TestEngineCountsPerReplayedObject pins what the engine runs for one
// object a recovery master replays at RF 1 and RF 4, end to end, with the
// backups' appends and acks: its busy time, the log head, its cost, and a
// post, a call and an ack per backup are each callbacks, and the replay
// proc stays suspended but for a roll. What one object allocates is its
// one-object list and the request the chain sends.
func TestEngineCountsPerReplayedObject(t *testing.T) {
	for _, c := range []struct {
		rf   int
		want opCost
	}{
		{1, opCost{11, 0, 2}},
		{4, opCost{38.01, 0.01, 1.99}},
	} {
		checkCost(t, fmt.Sprintf("replay rf%d", c.rf), "replayed object", measureReplay(t, c.rf), c.want)
	}
}

// BenchmarkClosedLoopRead times one read of a closed-loop client through
// the whole stack on one server at RF 0: the client's overhead wait and
// issue, the fabric, the server's dispatch and worker, and the reply.
func BenchmarkClosedLoopRead(b *testing.B) {
	eng, c := closedLoop(b, 1, 0, ycsb.WorkloadC(1000, 100), ycsb.RunOptions{Requests: b.N})
	defer eng.Shutdown()
	eng.RunUntil(0) // the servers' procs and the client start
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if got := c.Stats().Ops.Value(); got != int64(b.N) {
		b.Fatalf("%d of %d reads done", got, b.N)
	}
}
