package rpc

import (
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
// costs the host beyond its messages: the response future, and nothing for
// the waiter or the deadline, which live inside the future.
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
	if perCall := allocs / perSlice; perCall > 1.05 {
		t.Fatalf("CallTimeout allocates %.2f objects per call, want 1", perCall)
	}
}
