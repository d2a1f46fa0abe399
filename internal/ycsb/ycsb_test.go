package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

func TestCoreWorkloadMixes(t *testing.T) {
	cases := []struct {
		w          Workload
		wantName   string
		wantUpdate float64
	}{
		{WorkloadA(10, 1024), "A", 0.5},
		{WorkloadB(10, 1024), "B", 0.05},
		{WorkloadC(10, 1024), "C", 0.0},
	}
	for _, c := range cases {
		if c.w.Name != c.wantName {
			t.Errorf("name = %s", c.w.Name)
		}
		if math.Abs(c.w.UpdateProp-c.wantUpdate) > 1e-9 {
			t.Errorf("%s update prop = %v", c.w.Name, c.w.UpdateProp)
		}
		if math.Abs(c.w.ReadProp+c.w.UpdateProp-1.0) > 1e-9 {
			t.Errorf("%s props do not sum to 1", c.w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"a", "A", "b", "B", "c", "C"} {
		if _, err := ByName(name, 10, 10); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("z", 10, 10); err == nil {
		t.Error("ByName(z) should fail")
	}
}

func TestOpMixFrequencies(t *testing.T) {
	w := WorkloadA(100, 1024)
	rng := rand.New(rand.NewSource(1))
	updates := 0
	n := 100_000
	for i := 0; i < n; i++ {
		if w.NextOp(rng) == OpUpdate {
			updates++
		}
	}
	frac := float64(updates) / float64(n)
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("update fraction = %v, want ~0.5", frac)
	}
}

func TestKeyFormat(t *testing.T) {
	if string(Key(42)) != "user0000000042" {
		t.Fatalf("key = %q", Key(42))
	}
	if string(Key(0)) != "user0000000000" {
		t.Fatalf("key = %q", Key(0))
	}
}

// TestKeyEqualsSprintf pins the hand-written digits to the Sprintf form at
// the padding's edges, on the fallback's side of them, and at random
// indices.
func TestKeyEqualsSprintf(t *testing.T) {
	idx := []int{0, 9, 10, 1e9, 1e10 - 1, 1e10, -1, -42, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		idx = append(idx, int(rng.Int63n(1e10)))
	}
	for _, i := range idx {
		want := fmt.Sprintf("user%010d", i)
		if got := string(Key(i)); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
		if got := string(AppendKey([]byte("prefix|"), i)); got != "prefix|"+want {
			t.Fatalf("AppendKey(prefix, %d) = %q, want %q", i, got, "prefix|"+want)
		}
	}
	var sink []byte // keeps the key on the heap, as every caller's does
	if n := testing.AllocsPerRun(100, func() { sink = Key(1234567) }); n != 1 || len(sink) != 14 {
		t.Fatalf("Key allocates %v objects, want 1", n)
	}
	buf := make([]byte, 0, 14)
	if n := testing.AllocsPerRun(100, func() { sink = AppendKey(buf[:0], 1234567) }); n != 0 || string(sink) != "user0001234567" {
		t.Fatalf("AppendKey into a buffer with room allocates %v objects (%q), want 0", n, sink)
	}
}

func TestUniformChooserBounds(t *testing.T) {
	w := WorkloadC(1000, 1024)
	ch := w.NewChooser()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		v := ch.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("uniform out of range: %d", v)
		}
	}
}

func TestZipfianChooserBoundsAndSkew(t *testing.T) {
	w := Workload{RecordCount: 10_000, Dist: Zipfian}
	ch := w.NewChooser()
	rng := rand.New(rand.NewSource(3))
	counts := map[int]int{}
	n := 200_000
	for i := 0; i < n; i++ {
		v := ch.Next(rng)
		if v < 0 || v >= 10_000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Skew: the most popular key should be far above uniform expectation.
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	uniform := n / 10_000
	if maxCount < uniform*20 {
		t.Fatalf("zipfian not skewed: hottest=%d, uniform=%d", maxCount, uniform)
	}
}

func TestThrottlePacing(t *testing.T) {
	e := sim.New(1)
	var done sim.Time
	e.Go("paced", func(p *sim.Proc) {
		th := NewThrottle(100) // 100 ops/s -> 10ms spacing
		for i := 0; i < 11; i++ {
			th.Wait(p)
		}
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(100*sim.Millisecond) {
		t.Fatalf("11 paced ops finished at %v, want 100ms", done)
	}
}

func TestThrottleNilIsUnlimited(t *testing.T) {
	e := sim.New(1)
	var done sim.Time
	e.Go("free", func(p *sim.Proc) {
		th := NewThrottle(0)
		for i := 0; i < 1000; i++ {
			th.Wait(p)
		}
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("unthrottled waits consumed time: %v", done)
	}
}

// TestVarThrottleRetargets checks a variable-rate throttle re-derives its
// interval at every slot, so a rate change takes effect mid-run.
func TestVarThrottleRetargets(t *testing.T) {
	e := sim.New(1)
	var done sim.Time
	e.Go("paced", func(p *sim.Proc) {
		// 100 op/s for the first second, 1000 op/s afterwards.
		th := NewVarThrottle(func(now sim.Time) float64 {
			if now < sim.Time(sim.Second) {
				return 100
			}
			return 1000
		})
		for i := 0; i < 200; i++ {
			th.Wait(p)
		}
		done = p.Now()
	})
	e.Run()
	// 100 slots in the first second (10ms spacing), then 100 more at 1ms
	// spacing: ~1.1s total. A fixed 100 op/s throttle would take ~2s.
	if done < sim.Time(1050*sim.Millisecond) || done > sim.Time(1250*sim.Millisecond) {
		t.Fatalf("retargeted run finished at %v, want ~1.1s", done)
	}
	if NewVarThrottle(nil) != nil {
		t.Fatal("nil RateFunc must yield a nil throttle")
	}
}

// TestVarThrottleZeroRateDozes checks a non-positive target pauses the
// client until the rate comes back instead of dividing by zero.
func TestVarThrottleZeroRateDozes(t *testing.T) {
	e := sim.New(1)
	var done sim.Time
	e.Go("dozer", func(p *sim.Proc) {
		th := NewVarThrottle(func(now sim.Time) float64 {
			if now < sim.Time(sim.Second) {
				return 0 // trough: no load offered
			}
			return 1000
		})
		th.Wait(p)
		done = p.Now()
	})
	e.Run()
	if done < sim.Time(sim.Second) {
		t.Fatalf("first slot at %v, want >= 1s (dozed through the trough)", done)
	}
}

// fakeStore is a single scripted master + coordinator pair able to serve
// every data-plane RPC shape the driver can produce.
type fakeStore struct {
	eng    *sim.Engine
	net    *simnet.Network
	coord  *rpc.Endpoint
	master *rpc.Endpoint

	dataRPCs int
}

func newFakeStore(t *testing.T) *fakeStore {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	f := &fakeStore{
		eng:    eng,
		net:    net,
		coord:  rpc.NewEndpoint(eng, net, simnet.NodeID(-1)),
		master: rpc.NewEndpoint(eng, net, simnet.NodeID(1)),
	}
	tablets := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1}}
	eng.Go("store-coord", func(p *sim.Proc) {
		for {
			req := f.coord.Inbound.Pop(p)
			if _, ok := req.Msg.(*wire.GetTabletMapReq); ok {
				f.coord.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: tablets})
			}
		}
	})
	eng.Go("store-master", func(p *sim.Proc) {
		for {
			req := f.master.Inbound.Pop(p)
			f.dataRPCs++
			p.Sleep(2 * sim.Microsecond) // fixed service time
			switch m := req.Msg.(type) {
			case *wire.ReadReq:
				f.master.Reply(req, &wire.ReadResp{Status: wire.StatusOK, Version: 1, ValueLen: 1024})
			case *wire.WriteReq:
				f.master.Reply(req, &wire.WriteResp{Status: wire.StatusOK, Version: 1})
			case *wire.MultiReadReq:
				items := make([]wire.MultiReadResult, len(m.Items))
				for i := range items {
					items[i] = wire.MultiReadResult{Status: wire.StatusOK, Version: 1, ValueLen: 1024}
				}
				f.master.Reply(req, &wire.MultiReadResp{Status: wire.StatusOK, Items: items})
			case *wire.MultiWriteReq:
				items := make([]wire.MultiWriteResult, len(m.Items))
				for i := range items {
					items[i] = wire.MultiWriteResult{Status: wire.StatusOK, Version: 1}
				}
				f.master.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
			}
		}
	})
	return f
}

func (f *fakeStore) newClient() *client.Client {
	cfg := client.DefaultConfig()
	cfg.RPCTimeout = 50 * sim.Millisecond
	return client.New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), cfg)
}

// TestRunClientBatched checks the batched driver completes every request
// through multi-op RPCs and collapses the RPC count.
func TestRunClientBatched(t *testing.T) {
	f := newFakeStore(t)
	c := f.newClient()
	var res RunResult
	f.eng.Go("driver", func(p *sim.Proc) {
		res = RunClient(p, c, WorkloadA(1000, 1024), RunOptions{
			Table: 1, Requests: 200, Seed: 3, BatchSize: 16,
		})
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if res.Reads+res.Updates != 200 || res.Errors != 0 {
		t.Fatalf("res = %+v", res)
	}
	if got := c.Stats().Ops.Value(); got != 200 {
		t.Fatalf("ops = %d", got)
	}
	// 200 ops in batches of 16 split read/write: at most 2 RPCs per batch
	// iteration (13 iterations), far below 200.
	if f.dataRPCs >= 50 {
		t.Fatalf("batched run issued %d data RPCs for 200 ops", f.dataRPCs)
	}
	if c.Stats().BatchedOps.Value() != 200 {
		t.Fatalf("BatchedOps = %d", c.Stats().BatchedOps.Value())
	}
}

// TestRunClientPipelined checks the windowed async driver completes every
// request and beats the closed loop in simulated time.
func TestRunClientPipelined(t *testing.T) {
	run := func(window int) (RunResult, sim.Duration) {
		f := newFakeStore(t)
		c := f.newClient()
		var res RunResult
		f.eng.Go("driver", func(p *sim.Proc) {
			res = RunClient(p, c, WorkloadC(1000, 1024), RunOptions{
				Table: 1, Requests: 300, Seed: 5, Window: window,
			})
			f.eng.Stop()
		})
		f.eng.Run()
		f.eng.Shutdown()
		return res, res.Duration
	}
	closedRes, closedD := run(0)
	pipeRes, pipeD := run(8)
	if closedRes.Errors != 0 || pipeRes.Errors != 0 {
		t.Fatalf("errors: closed=%d pipe=%d", closedRes.Errors, pipeRes.Errors)
	}
	if pipeRes.Reads != 300 {
		t.Fatalf("pipelined reads = %d", pipeRes.Reads)
	}
	if pipeD >= closedD {
		t.Fatalf("pipelined run (%v) not faster than closed loop (%v)", pipeD, closedD)
	}
}

// TestRunClientOpenLoop checks Poisson arrivals: the run is bounded by
// Stop when Requests is 0, inter-arrival gaps are seed-deterministic, and
// ops complete through the async API.
func TestRunClientOpenLoop(t *testing.T) {
	run := func(seed int64) (RunResult, int64) {
		f := newFakeStore(t)
		c := f.newClient()
		var res RunResult
		f.eng.Go("driver", func(p *sim.Proc) {
			res = RunClient(p, c, WorkloadC(1000, 1024), RunOptions{
				Table: 1, Seed: seed, OpenLoop: true,
				Rate: 1000, Stop: sim.Time(2 * sim.Second),
			})
			f.eng.Stop()
		})
		f.eng.Run()
		f.eng.Shutdown()
		return res, c.Stats().Ops.Value()
	}
	resA, opsA := run(3)
	resB, opsB := run(3)
	if resA.Reads != resB.Reads || resA.Duration != resB.Duration {
		t.Fatalf("same seed diverged: %d/%d reads, %v/%v", resA.Reads, resB.Reads, resA.Duration, resB.Duration)
	}
	if opsA != int64(resA.Reads) {
		t.Fatalf("completed ops %d != issued %d", opsA, resA.Reads)
	}
	// ~1000 op/s over 2s of issuing: expect about 2000 arrivals.
	if resA.Reads < 1700 || resA.Reads > 2300 {
		t.Fatalf("open-loop issued %d ops, want ~2000", resA.Reads)
	}
	resC, _ := run(4)
	if resC.Reads == resA.Reads && resC.Duration == resA.Duration {
		t.Fatal("different seeds produced identical arrival sequences")
	}
	_ = opsB
}

// TestRunClientOpenLoopRequestsBound checks the request budget also caps
// an open-loop run.
func TestRunClientOpenLoopRequestsBound(t *testing.T) {
	f := newFakeStore(t)
	c := f.newClient()
	var res RunResult
	f.eng.Go("driver", func(p *sim.Proc) {
		res = RunClient(p, c, WorkloadC(1000, 1024), RunOptions{
			Table: 1, Requests: 150, Seed: 3, OpenLoop: true, Rate: 10_000,
		})
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if res.Reads != 150 || c.Stats().Ops.Value() != 150 {
		t.Fatalf("reads = %d, ops = %d, want 150", res.Reads, c.Stats().Ops.Value())
	}
}

// TestOpenLoopRejectsUnboundedRun checks the guard rails: no rate, or no
// request/stop bound, is a programming error.
func TestOpenLoopRejectsUnboundedRun(t *testing.T) {
	mustPanic := func(name string, opts RunOptions) {
		t.Helper()
		f := newFakeStore(t)
		c := f.newClient()
		f.eng.Go("driver", func(p *sim.Proc) {
			defer f.eng.Stop()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RunClient did not panic", name)
				}
			}()
			RunClient(p, c, WorkloadC(1000, 1024), opts)
		})
		f.eng.Run()
		f.eng.Shutdown()
	}
	mustPanic("no rate", RunOptions{Table: 1, Requests: 10, OpenLoop: true})
	mustPanic("no bound", RunOptions{Table: 1, OpenLoop: true, Rate: 100})
}

func TestZetaPositive(t *testing.T) {
	if zeta(100, 0.99) <= 0 {
		t.Fatal("zeta must be positive")
	}
}
