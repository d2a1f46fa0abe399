package client

import (
	"errors"
	"fmt"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// fakeCluster is a scripted coordinator + master endpoint pair that lets
// the client's routing, retry and timeout logic be tested in isolation.
type fakeCluster struct {
	eng    *sim.Engine
	net    *simnet.Network
	coord  *rpc.Endpoint
	master *rpc.Endpoint

	tablets     []wire.Tablet
	mapRequests int

	readStatus  wire.Status // status the master returns for reads
	masterMute  bool        // drop all master replies (simulates death)
	readsServed int
}

func newFake(t *testing.T) *fakeCluster {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	f := &fakeCluster{
		eng:        eng,
		net:        net,
		coord:      rpc.NewEndpoint(eng, net, simnet.NodeID(-1)),
		master:     rpc.NewEndpoint(eng, net, simnet.NodeID(1)),
		readStatus: wire.StatusOK,
	}
	f.tablets = []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1}}
	eng.Go("fake-coord", func(p *sim.Proc) {
		for {
			req := f.coord.Inbound.Pop(p)
			switch req.Msg.(type) {
			case *wire.GetTabletMapReq:
				f.mapRequests++
				f.coord.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: f.tablets})
			case *wire.CreateTableReq:
				f.coord.Reply(req, &wire.CreateTableResp{Status: wire.StatusOK, Table: 1})
			}
		}
	})
	eng.Go("fake-master", func(p *sim.Proc) {
		for {
			req := f.master.Inbound.Pop(p)
			if f.masterMute {
				continue
			}
			switch req.Msg.(type) {
			case *wire.ReadReq:
				f.readsServed++
				f.master.Reply(req, &wire.ReadResp{Status: f.readStatus, ValueLen: 9, Version: 1})
			case *wire.WriteReq:
				f.master.Reply(req, &wire.WriteResp{Status: wire.StatusOK, Version: 2})
			case *wire.DeleteReq:
				f.master.Reply(req, &wire.DeleteResp{Status: wire.StatusOK, Version: 3})
			}
		}
	})
	return f
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.RPCTimeout = 20 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.ReadOverhead = 0
	cfg.UpdateOverhead = 0
	return cfg
}

func (f *fakeCluster) newClient() *Client {
	return New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), testCfg())
}

func TestClientBasicOps(t *testing.T) {
	f := newFake(t)
	c := f.newClient()
	var errs []error
	f.eng.Go("app", func(p *sim.Proc) {
		id, err := c.CreateTable(p, "t", 1)
		errs = append(errs, err)
		n, _, err := c.Read(p, id, []byte("k"))
		if n != 9 {
			errs = append(errs, errors.New("value len mismatch"))
		}
		errs = append(errs, err)
		errs = append(errs, c.Write(p, id, []byte("k"), 5, nil))
		errs = append(errs, c.Delete(p, id, []byte("k")))
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if c.Stats().Ops.Value() != 3 {
		t.Fatalf("ops = %d", c.Stats().Ops.Value())
	}
}

func TestClientNotFound(t *testing.T) {
	f := newFake(t)
	f.readStatus = wire.StatusUnknownKey
	c := f.newClient()
	var err error
	f.eng.Go("app", func(p *sim.Proc) {
		_, _, err = c.Read(p, 1, []byte("missing"))
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientTimesOutAndGivesUp(t *testing.T) {
	f := newFake(t)
	f.masterMute = true
	c := f.newClient()
	var err error
	f.eng.Go("app", func(p *sim.Proc) {
		_, _, err = c.Read(p, 1, []byte("k"))
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Timeouts.Value() == 0 || c.Stats().Failures.Value() != 1 {
		t.Fatalf("timeouts=%d failures=%d", c.Stats().Timeouts.Value(), c.Stats().Failures.Value())
	}
}

func TestClientBlocksWhileRecoveringThenSucceeds(t *testing.T) {
	f := newFake(t)
	f.tablets[0].Recovering = true
	cfg := testCfg()
	cfg.MaxRetries = 20 // recovery polling consumes one attempt per backoff
	c := New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), cfg)
	var err error
	var elapsed sim.Duration
	// Tablet leaves recovery after 300ms.
	f.eng.Schedule(300*sim.Millisecond, func() { f.tablets[0].Recovering = false })
	f.eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		_, _, err = c.Read(p, 1, []byte("k"))
		elapsed = p.Now().Sub(start)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 300*sim.Millisecond {
		t.Fatalf("returned in %v; should have waited out the recovery", elapsed)
	}
	if f.mapRequests < 2 {
		t.Fatalf("client refreshed the map %d times; expected polling", f.mapRequests)
	}
}

func TestClientUnknownTable(t *testing.T) {
	f := newFake(t)
	c := f.newClient()
	var err error
	f.eng.Go("app", func(p *sim.Proc) {
		_, _, err = c.Read(p, 99, []byte("k"))
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
}

// splitFake is a scripted coordinator plus two masters sharing table 1,
// split at the middle of the hash space. The coordinator can serve a stale
// map (everything owned by master 1) until told otherwise, which lets tests
// exercise WrongServer retries mid-batch.
type splitFake struct {
	eng     *sim.Engine
	net     *simnet.Network
	coord   *rpc.Endpoint
	masters [2]*rpc.Endpoint

	staleMap   bool // serve the pre-split map (all keys -> master 1)
	multiRPCs  [2]int
	multiItems [2][]int // items per multi RPC received, per master
}

const splitMid = uint64(1) << 63

func newSplitFake(t *testing.T) *splitFake {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	f := &splitFake{
		eng:   eng,
		net:   net,
		coord: rpc.NewEndpoint(eng, net, simnet.NodeID(-1)),
	}
	f.masters[0] = rpc.NewEndpoint(eng, net, simnet.NodeID(1))
	f.masters[1] = rpc.NewEndpoint(eng, net, simnet.NodeID(2))
	eng.Go("split-coord", func(p *sim.Proc) {
		for {
			req := f.coord.Inbound.Pop(p)
			switch req.Msg.(type) {
			case *wire.GetTabletMapReq:
				var tablets []wire.Tablet
				if f.staleMap {
					tablets = []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1}}
				} else {
					tablets = []wire.Tablet{
						{Table: 1, StartHash: 0, EndHash: splitMid - 1, Master: 1},
						{Table: 1, StartHash: splitMid, EndHash: ^uint64(0), Master: 2},
					}
				}
				f.coord.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: tablets})
			}
		}
	})
	for mi := 0; mi < 2; mi++ {
		mi := mi
		ep := f.masters[mi]
		owns := func(h uint64) bool {
			if mi == 0 {
				return h < splitMid
			}
			return h >= splitMid
		}
		eng.Go(fmt.Sprintf("split-master%d", mi+1), func(p *sim.Proc) {
			for {
				req := ep.Inbound.Pop(p)
				switch m := req.Msg.(type) {
				case *wire.MultiReadReq:
					f.multiRPCs[mi]++
					f.multiItems[mi] = append(f.multiItems[mi], len(m.Items))
					items := make([]wire.MultiReadResult, len(m.Items))
					for i := range m.Items {
						if owns(hashtable.HashKey(m.Items[i].Table, m.Items[i].Key)) {
							items[i] = wire.MultiReadResult{Status: wire.StatusOK, Version: 1, ValueLen: 7}
						} else {
							items[i].Status = wire.StatusWrongServer
						}
					}
					ep.Reply(req, &wire.MultiReadResp{Status: wire.StatusOK, Items: items})
				case *wire.MultiWriteReq:
					f.multiRPCs[mi]++
					f.multiItems[mi] = append(f.multiItems[mi], len(m.Items))
					items := make([]wire.MultiWriteResult, len(m.Items))
					for i := range m.Items {
						if owns(hashtable.HashKey(m.Items[i].Table, m.Items[i].Key)) {
							items[i] = wire.MultiWriteResult{Status: wire.StatusOK, Version: 2}
						} else {
							items[i].Status = wire.StatusWrongServer
						}
					}
					ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
				case *wire.ReadReq:
					ep.Reply(req, &wire.ReadResp{Status: wire.StatusOK, Version: 1, ValueLen: 7})
				}
			}
		})
	}
	return f
}

// splitKeys returns n keys per side of the hash split for table 1.
func splitKeys(t *testing.T, n int) (low, high [][]byte) {
	t.Helper()
	for i := 0; len(low) < n || len(high) < n; i++ {
		key := []byte(fmt.Sprintf("user%010d", i))
		if hashtable.HashKey(1, key) < splitMid {
			if len(low) < n {
				low = append(low, key)
			}
		} else if len(high) < n {
			high = append(high, key)
		}
		if i > 10_000 {
			t.Fatal("could not find keys on both sides of the split")
		}
	}
	return low, high
}

// TestMultiReadOneRPCPerMaster asserts the acceptance criterion: a
// MultiRead of N keys spanning two masters issues exactly one data RPC per
// involved master (counted at the client's endpoint and at the masters).
func TestMultiReadOneRPCPerMaster(t *testing.T) {
	f := newSplitFake(t)
	c := New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), testCfg())
	low, high := splitKeys(t, 4)
	keys := append(append([][]byte{}, low...), high...)
	var results []MultiResult
	var sentDelta uint64
	f.eng.Go("app", func(p *sim.Proc) {
		c.refreshTablets(p) // warm the tablet map
		before := c.sentRPCs()
		results = c.MultiRead(p, 1, keys)
		sentDelta = c.sentRPCs() - before
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	for i, r := range results {
		if r.Err != nil || r.ValueLen != 7 {
			t.Fatalf("item %d: len=%d err=%v", i, r.ValueLen, r.Err)
		}
	}
	if sentDelta != 2 {
		t.Fatalf("MultiRead of %d keys across 2 masters issued %d RPCs, want 2", len(keys), sentDelta)
	}
	if f.multiRPCs[0] != 1 || f.multiRPCs[1] != 1 {
		t.Fatalf("multi RPCs per master = %v, want one each", f.multiRPCs)
	}
	if f.multiItems[0][0] != 4 || f.multiItems[1][0] != 4 {
		t.Fatalf("items per RPC = %v/%v, want 4 each", f.multiItems[0], f.multiItems[1])
	}
	if got := c.Stats().BatchedOps.Value(); got != int64(len(keys)) {
		t.Fatalf("BatchedOps = %d, want %d", got, len(keys))
	}
	if got := c.Stats().BatchRPCs.Value(); got != 2 {
		t.Fatalf("BatchRPCs = %d, want 2", got)
	}
}

// TestMultiReadWrongServerRetryMidBatch starts the client on a stale
// one-master map: the first batch RPC goes wholly to master 1, which
// answers WrongServer for the keys that live across the split. The client
// must refresh and reissue only the moved items to master 2.
func TestMultiReadWrongServerRetryMidBatch(t *testing.T) {
	f := newSplitFake(t)
	f.staleMap = true
	c := New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), testCfg())
	low, high := splitKeys(t, 3)
	keys := append(append([][]byte{}, low...), high...)
	var results []MultiResult
	f.eng.Go("app", func(p *sim.Proc) {
		c.refreshTablets(p) // warm with the STALE map
		f.staleMap = false  // the next refresh sees the split
		results = c.MultiRead(p, 1, keys)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	for i, r := range results {
		if r.Err != nil || r.ValueLen != 7 {
			t.Fatalf("item %d: len=%d err=%v", i, r.ValueLen, r.Err)
		}
	}
	// First attempt: all 6 items to master 1. Second attempt: the 3 moved
	// items to master 2 only.
	if f.multiRPCs[0] != 1 || f.multiRPCs[1] != 1 {
		t.Fatalf("multi RPCs per master = %v, want one each", f.multiRPCs)
	}
	if f.multiItems[0][0] != 6 {
		t.Fatalf("first batch carried %d items, want all 6", f.multiItems[0][0])
	}
	if f.multiItems[1][0] != 3 {
		t.Fatalf("retry batch carried %d items, want only the 3 moved", f.multiItems[1][0])
	}
	if c.Stats().Retries.Value() != 3 {
		t.Fatalf("retries = %d, want 3 (one per moved item)", c.Stats().Retries.Value())
	}
}

// TestMultiWritePartitioned checks MultiWrite splits a batch across owners
// and reports per-item versions.
func TestMultiWritePartitioned(t *testing.T) {
	f := newSplitFake(t)
	c := New(f.eng, f.net, simnet.NodeID(100), f.coord.Node(), testCfg())
	low, high := splitKeys(t, 2)
	ops := []MultiWriteOp{
		{Key: low[0], ValueLen: 100},
		{Key: high[0], ValueLen: 100},
		{Key: low[1], ValueLen: 100},
		{Key: high[1], ValueLen: 100},
	}
	var results []MultiResult
	f.eng.Go("app", func(p *sim.Proc) {
		c.refreshTablets(p)
		results = c.MultiWrite(p, 1, ops)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	for i, r := range results {
		if r.Err != nil || r.Version != 2 {
			t.Fatalf("item %d: version=%d err=%v", i, r.Version, r.Err)
		}
	}
	if f.multiRPCs[0] != 1 || f.multiRPCs[1] != 1 {
		t.Fatalf("multi RPCs per master = %v, want one each", f.multiRPCs)
	}
}

// TestAsyncOpsPipeline checks that async ops overlap their round trips:
// four pipelined reads finish faster than four sequential ones.
func TestAsyncOpsPipeline(t *testing.T) {
	f := newFake(t)
	c := f.newClient()
	var seqD, pipeD sim.Duration
	f.eng.Go("app", func(p *sim.Proc) {
		key := []byte("k")
		start := p.Now()
		for i := 0; i < 4; i++ {
			if _, _, err := c.Read(p, 1, key); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		seqD = p.Now().Sub(start)

		start = p.Now()
		ops := make([]*Op, 4)
		for i := range ops {
			ops[i] = c.ReadAsync(p, 1, key)
		}
		for _, op := range ops {
			if n, _, err := op.Wait(p); err != nil || n != 9 {
				t.Errorf("async read: n=%d err=%v", n, err)
			}
			// Wait twice must return the memoized result.
			if n2, _, err2 := op.Wait(p); err2 != nil || n2 != 9 {
				t.Errorf("re-wait: n=%d err=%v", n2, err2)
			}
		}
		pipeD = p.Now().Sub(start)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if pipeD >= seqD {
		t.Fatalf("pipelined 4 reads took %v, sequential %v; no overlap", pipeD, seqD)
	}
	if c.Stats().AsyncOps.Value() != 4 {
		t.Fatalf("AsyncOps = %d", c.Stats().AsyncOps.Value())
	}
}

// TestAsyncNotFound checks error propagation through the future.
func TestAsyncNotFound(t *testing.T) {
	f := newFake(t)
	f.readStatus = wire.StatusUnknownKey
	c := f.newClient()
	var err error
	f.eng.Go("app", func(p *sim.Proc) {
		op := c.ReadAsync(p, 1, []byte("missing"))
		_, _, err = op.Wait(p)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestMultiReadUnknownTable: a batch against a table absent from the map
// fails every item with ErrNoTable after one refresh, like the single-op
// path.
func TestMultiReadUnknownTable(t *testing.T) {
	f := newFake(t)
	c := f.newClient()
	var results []MultiResult
	f.eng.Go("app", func(p *sim.Proc) {
		results = c.MultiRead(p, 99, [][]byte{[]byte("a"), []byte("b")})
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	for i, r := range results {
		if !errors.Is(r.Err, ErrNoTable) {
			t.Fatalf("item %d err = %v, want ErrNoTable", i, r.Err)
		}
	}
}

func TestClientOverheadPacing(t *testing.T) {
	f := newFake(t)
	cfg := testCfg()
	cfg.ReadOverhead = 100 * sim.Microsecond
	c := New(f.eng, f.net, simnet.NodeID(101), f.coord.Node(), cfg)
	var elapsed sim.Duration
	f.eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 10; i++ {
			if _, _, err := c.Read(p, 1, []byte("k")); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		elapsed = p.Now().Sub(start)
		f.eng.Stop()
	})
	f.eng.Run()
	f.eng.Shutdown()
	if elapsed < sim.Millisecond {
		t.Fatalf("10 reads with 100us overhead took %v; overhead not applied", elapsed)
	}
}
