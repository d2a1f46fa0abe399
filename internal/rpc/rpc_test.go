package rpc

import (
	"slices"
	"testing"

	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

func pair(t *testing.T) (*sim.Engine, *Endpoint, *Endpoint) {
	t.Helper()
	e := sim.New(1)
	n := simnet.New(e, simnet.Config{PropagationDelay: 2 * sim.Microsecond, Bandwidth: 1e9})
	return e, NewEndpoint(e, n, 1), NewEndpoint(e, n, 2)
}

// echoServer services inbound requests with a fixed delay.
func echoServer(e *sim.Engine, ep *Endpoint, delay sim.Duration) {
	e.Go("echo", func(p *sim.Proc) {
		for {
			req := ep.Inbound.Pop(p)
			p.Sleep(delay)
			switch m := req.Msg.(type) {
			case *wire.PingReq:
				ep.Reply(req, &wire.PingResp{Seq: m.Seq})
			default:
				ep.Reply(req, &wire.PingResp{Seq: 0})
			}
		}
	})
}

func TestCallRoundTrip(t *testing.T) {
	e, cl, srv := pair(t)
	echoServer(e, srv, 3*sim.Microsecond)
	var seq uint64
	e.Go("client", func(p *sim.Proc) {
		resp := cl.Call(p, 2, &wire.PingReq{Seq: 77})
		seq = resp.(*wire.PingResp).Seq
	})
	e.Run()
	e.Shutdown()
	if seq != 77 {
		t.Fatalf("seq = %d", seq)
	}
	if cl.Sent() != 1 {
		t.Fatalf("sent=%d", cl.Sent())
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	e, cl, srv := pair(t)
	echoServer(e, srv, sim.Microsecond)
	results := map[uint64]uint64{}
	for i := uint64(1); i <= 20; i++ {
		i := i
		e.Go("c", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * 100 * sim.Nanosecond)
			resp := cl.Call(p, 2, &wire.PingReq{Seq: i})
			results[i] = resp.(*wire.PingResp).Seq
		})
	}
	e.Run()
	e.Shutdown()
	if len(results) != 20 {
		t.Fatalf("results = %d", len(results))
	}
	for k, v := range results {
		if k != v {
			t.Fatalf("call %d got response %d", k, v)
		}
	}
}

func TestCallTimeoutOnDeadPeer(t *testing.T) {
	e, cl, _ := pair(t)
	// No server proc: requests pile up unanswered.
	var ok bool
	var elapsed sim.Duration
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		_, ok = cl.CallTimeout(p, 2, &wire.PingReq{Seq: 1}, 10*sim.Millisecond)
		elapsed = p.Now().Sub(start)
	})
	e.Run()
	e.Shutdown()
	if ok {
		t.Fatal("expected timeout")
	}
	if elapsed != 10*sim.Millisecond {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestLateResponseDropped(t *testing.T) {
	e, cl, srv := pair(t)
	echoServer(e, srv, 20*sim.Millisecond) // slower than the timeout
	var first, second bool
	e.Go("client", func(p *sim.Proc) {
		_, first = cl.CallTimeout(p, 2, &wire.PingReq{Seq: 1}, 5*sim.Millisecond)
		// Wait past the late response arrival; it must be discarded.
		p.Sleep(30 * sim.Millisecond)
		resp, ok := cl.CallTimeout(p, 2, &wire.PingReq{Seq: 2}, 100*sim.Millisecond)
		second = ok && resp.(*wire.PingResp).Seq == 2
	})
	e.Run()
	e.Shutdown()
	if first {
		t.Fatal("first call should have timed out")
	}
	if !second {
		t.Fatal("second call should succeed with its own response")
	}
}

func TestAsyncCallFanOut(t *testing.T) {
	e := sim.New(1)
	n := simnet.New(e, simnet.Config{PropagationDelay: sim.Microsecond, Bandwidth: 1e9})
	cl := NewEndpoint(e, n, 1)
	for id := simnet.NodeID(2); id <= 4; id++ {
		ep := NewEndpoint(e, n, id)
		echoServer(e, ep, sim.Duration(id)*sim.Microsecond)
	}
	var replies int
	e.Go("client", func(p *sim.Proc) {
		var futures []*sim.Future[wire.Message]
		for id := simnet.NodeID(2); id <= 4; id++ {
			futures = append(futures, cl.AsyncCall(id, &wire.PingReq{Seq: uint64(id)}))
		}
		for _, f := range futures {
			if f.Get(p).(*wire.PingResp).Seq != 0 {
				replies++
			}
		}
	})
	e.Run()
	e.Shutdown()
	if replies != 3 {
		t.Fatalf("replies = %d", replies)
	}
}

func TestStartThenWait(t *testing.T) {
	e, cl, srv := pair(t)
	echoServer(e, srv, 5*sim.Microsecond)
	var seq uint64
	var issuedAt, doneAt sim.Time
	e.Go("client", func(p *sim.Proc) {
		call := cl.StartCall(2, &wire.PingReq{Seq: 42})
		issuedAt = p.Now()
		// The proc is free to do other work while the RPC is in flight.
		p.Sleep(2 * sim.Microsecond)
		if call.Done() {
			t.Error("call done before the echo delay elapsed")
		}
		resp, ok := call.WaitTimeout(p, 10*sim.Millisecond)
		doneAt = p.Now()
		if !ok {
			t.Error("call timed out")
			return
		}
		seq = resp.(*wire.PingResp).Seq
	})
	e.Run()
	e.Shutdown()
	if seq != 42 {
		t.Fatalf("seq = %d", seq)
	}
	if doneAt.Sub(issuedAt) < 5*sim.Microsecond {
		t.Fatalf("completed in %v; echo delay not overlapped", doneAt.Sub(issuedAt))
	}
}

func TestStartTimeoutDropsLateResponse(t *testing.T) {
	e, cl, srv := pair(t)
	echoServer(e, srv, 20*sim.Millisecond)
	var first bool
	var second bool
	e.Go("client", func(p *sim.Proc) {
		call := cl.StartCall(2, &wire.PingReq{Seq: 1})
		_, first = call.WaitTimeout(p, 5*sim.Millisecond)
		p.Sleep(30 * sim.Millisecond) // late response arrives and must be dropped
		resp, ok := cl.CallTimeout(p, 2, &wire.PingReq{Seq: 2}, 100*sim.Millisecond)
		second = ok && resp.(*wire.PingResp).Seq == 2
	})
	e.Run()
	e.Shutdown()
	if first {
		t.Fatal("first call should have timed out")
	}
	if !second {
		t.Fatal("second call should succeed with its own response")
	}
}

// TestCallTimeoutAllocs pins what a simulated RPC that is answered in time
// costs the host beyond its messages: nothing. The response future is
// reused from the endpoint's free list, and the waiter and the deadline
// live inside the future.
func TestCallTimeoutAllocs(t *testing.T) {
	e, cl, srv := pair(t)
	defer e.Shutdown()
	req, resp := &wire.PingReq{Seq: 1}, &wire.PingResp{Seq: 1}
	e.Go("server", func(p *sim.Proc) {
		for {
			srv.Reply(srv.Inbound.Pop(p), resp)
		}
	})
	calls := 0
	e.Go("client", func(p *sim.Proc) {
		for {
			if _, ok := cl.CallTimeout(p, 2, req, sim.Second); !ok {
				t.Error("call timed out")
			}
			calls++
		}
	})
	slice := func() { e.RunUntil(e.Now().Add(sim.Millisecond)) }
	slice() // grow the event heap, the pending map and the delivery freelist
	before := calls
	allocs := testing.AllocsPerRun(20, slice)
	perSlice := float64(calls-before) / 21
	if perSlice < 100 {
		t.Fatalf("%.0f calls per slice: the loop is not running", perSlice)
	}
	// AllocsPerRun rounds its per-slice average down, hence the margin.
	if perCall := allocs / perSlice; perCall > 0.05 {
		t.Fatalf("CallTimeout allocates %.2f objects per call, want 0", perCall)
	}
}

// seqServer answers each PingReq with its own Seq after delay(Seq), every
// request on its own proc, so a slow answer does not hold up a fast one.
func seqServer(e *sim.Engine, ep *Endpoint, delay func(seq uint64) sim.Duration) {
	e.Go("seq", func(p *sim.Proc) {
		for {
			req := ep.Inbound.Pop(p)
			seq := req.Msg.(*wire.PingReq).Seq
			e.Go("answer", func(p *sim.Proc) {
				p.Sleep(delay(seq))
				ep.Reply(req, &wire.PingResp{Seq: seq})
			})
		}
	})
}

// TestLateResponseSkipsReusedFuture sends a second call right after the
// first times out, so it reuses the first call's future, and has the first
// call's response arrive while the second is still waiting. The late
// response must be dropped, not taken for the second call's.
func TestLateResponseSkipsReusedFuture(t *testing.T) {
	e, cl, srv := pair(t)
	seqServer(e, srv, func(seq uint64) sim.Duration {
		return map[uint64]sim.Duration{1: 20 * sim.Millisecond, 2: 30 * sim.Millisecond}[seq]
	})
	var first, second bool
	var got uint64
	e.Go("client", func(p *sim.Proc) {
		_, first = cl.CallTimeout(p, 2, &wire.PingReq{Seq: 1}, 5*sim.Millisecond)
		var resp wire.Message
		resp, second = cl.CallTimeout(p, 2, &wire.PingReq{Seq: 2}, 100*sim.Millisecond)
		if second {
			got = resp.(*wire.PingResp).Seq
		}
	})
	e.Run()
	e.Shutdown()
	if first {
		t.Fatal("first call should have timed out")
	}
	if !second || got != 2 {
		t.Fatalf("second call: ok=%v seq=%d, want its own response, seq 2", second, got)
	}
	if len(cl.free) != 1 {
		t.Fatalf("%d futures on the free list, want the one both calls shared", len(cl.free))
	}
}

// TestDuplicateResponseSkipsReusedFuture duplicates every request in the
// fabric, so the server answers each call twice, 3µs apart. The second
// answer arrives after the call resolved and its future went to the next
// call; it must be dropped, not taken for that call's.
func TestDuplicateResponseSkipsReusedFuture(t *testing.T) {
	e := sim.New(1)
	n := simnet.New(e, simnet.Config{PropagationDelay: 2 * sim.Microsecond, Bandwidth: 1e9})
	cl, srv := NewEndpoint(e, n, 1), NewEndpoint(e, n, 2)
	n.SetLinkFaults(1, 2, simnet.FaultModel{Dup: 1})
	echoServer(e, srv, 3*sim.Microsecond)
	var got []uint64
	e.Go("client", func(p *sim.Proc) {
		for seq := uint64(1); seq <= 5; seq++ {
			got = append(got, cl.Call(p, 2, &wire.PingReq{Seq: seq}).(*wire.PingResp).Seq)
		}
	})
	e.Run()
	e.Shutdown()
	if !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("calls answered %v, want each its own seq", got)
	}
	if n.Duplicated() != 5 {
		t.Fatalf("%d requests duplicated, want 5", n.Duplicated())
	}
	if len(cl.free) != 1 {
		t.Fatalf("%d futures on the free list, want the one every call shared", len(cl.free))
	}
}

// TestNotifiedLateResponseSkipsReusedFuture is
// TestLateResponseSkipsReusedFuture for calls waited on by a callback
// (Notify and Result): the first call times out, Result drops its entry
// and Release frees its future for the second call, which the first
// call's late answer must not resolve.
func TestNotifiedLateResponseSkipsReusedFuture(t *testing.T) {
	e, cl, srv := pair(t)
	seqServer(e, srv, func(seq uint64) sim.Duration {
		return map[uint64]sim.Duration{1: 20 * sim.Millisecond, 2: 30 * sim.Millisecond}[seq]
	})
	var c Call
	var oks []bool
	var got uint64
	var wake func()
	wake = func() {
		resp, ok := c.Result()
		oks = append(oks, ok)
		if ok {
			got = resp.(*wire.PingResp).Seq
		}
		c.Release()
		if len(oks) == 1 {
			c = cl.StartCall(2, &wire.PingReq{Seq: 2})
			c.Notify(100*sim.Millisecond, wake)
		}
	}
	e.Schedule(0, func() {
		c = cl.StartCall(2, &wire.PingReq{Seq: 1})
		c.Notify(5*sim.Millisecond, wake)
	})
	e.Run()
	e.Shutdown()
	if !slices.Equal(oks, []bool{false, true}) || got != 2 {
		t.Fatalf("calls settled %v, second with seq %d; want a timeout, then its own response, seq 2", oks, got)
	}
	if len(cl.free) != 1 {
		t.Fatalf("%d futures on the free list, want the one both calls shared", len(cl.free))
	}
}
