package simnet

import (
	"math"
	"testing"

	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

func netCfg() Config {
	return Config{PropagationDelay: 5 * sim.Microsecond, Bandwidth: 1e9}
}

func TestDeliveryLatency(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	var at sim.Time
	var got Message
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { at = e.Now(); got = m })
	// 1000 bytes at 1 GB/s = 1us tx + 5us propagation.
	e.Schedule(0, func() {
		n.Send(Message{From: 1, To: 2, Size: 1000, Payload: &wire.PingReq{Seq: 7}})
	})
	e.Run()
	if at != sim.Time(6*sim.Microsecond) {
		t.Fatalf("delivered at %v, want 6us", at)
	}
	if m, ok := got.Payload.(*wire.PingReq); !ok || m.Seq != 7 || got.From != 1 {
		t.Fatalf("message = %+v", got)
	}
	if n.delivered.Value() != 1 {
		t.Fatalf("delivered = %d", n.delivered.Value())
	}
}

func TestNICTxSerialization(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	var times []sim.Time
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { times = append(times, e.Now()) })
	e.Schedule(0, func() {
		n.Send(Message{From: 1, To: 2, Size: 1000}) // tx [0,1us], arrive 6us
		n.Send(Message{From: 1, To: 2, Size: 1000}) // tx [1us,2us], arrive 7us
	})
	e.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != sim.Time(6*sim.Microsecond) || times[1] != sim.Time(7*sim.Microsecond) {
		t.Fatalf("times = %v", times)
	}
}

func TestDownNodeDropsMessages(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	delivered := 0
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { delivered++ })
	n.SetDown(2, true)
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 10}) })
	e.Run()
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.Dropped())
	}
	if !n.IsDown(2) {
		t.Fatal("IsDown(2) = false")
	}
}

func TestDeathMidFlightDrops(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	delivered := 0
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { delivered++ })
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 1000}) })
	// Node dies while the message is in flight (arrives at 6us).
	e.Schedule(2*sim.Microsecond, func() { n.SetDown(2, true) })
	e.Run()
	if delivered != 0 || n.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.Dropped())
	}
}

func TestSendFromUnattachedPanics(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(2, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Send(Message{From: 1, To: 2, Size: 1})
}

func TestDoubleAttachPanics(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(1, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Attach(1, func(m Message) {})
}

func TestByteAccounting(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) {})
	e.Schedule(0, func() { n.Send(Message{From: 1, To: 2, Size: 500e6}) }) // 0.5s tx
	e.Run()
	if f := n.TxBusyFracSecond(1, 0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("tx busy frac = %v", f)
	}
	if n.TxBusyFracSecond(99, 0) != 0 {
		t.Fatal("unknown node busy frac should be 0")
	}
}

func TestRoundTripThroughQueues(t *testing.T) {
	// Simulates the standard usage pattern: handler pushes into a queue, a
	// proc services it and replies.
	e := sim.New(1)
	n := New(e, netCfg())
	serverQ := sim.NewQueue[Message](e)
	reply := sim.NewFuture[uint64](e)
	n.Attach(1, func(m Message) { reply.Set(m.Payload.(*wire.PingResp).Seq) })
	n.Attach(2, func(m Message) { serverQ.Push(m) })
	e.Go("server", func(p *sim.Proc) {
		m := serverQ.Pop(p)
		p.Sleep(2 * sim.Microsecond) // service time
		n.Send(Message{From: 2, To: 1, Size: 100, Payload: &wire.PingResp{Seq: m.Payload.(*wire.PingReq).Seq}})
	})
	var got uint64
	var rtt sim.Duration
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		n.Send(Message{From: 1, To: 2, Size: 100, Payload: &wire.PingReq{Seq: 41}})
		got = reply.Get(p)
		rtt = p.Now().Sub(start)
	})
	e.Run()
	e.Shutdown()
	if got != 41 {
		t.Fatalf("got %d", got)
	}
	// 2x (0.1us tx + 5us prop) + 2us service = 12.2us
	want := sim.Duration(12200)
	if rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

// Deliveries that land on one nanosecond run in sender-id order, whichever
// Send the engine happened to execute first.
func TestSameInstantDeliveriesOrderBySender(t *testing.T) {
	for _, senders := range [][]NodeID{{1, 2}, {2, 1}} {
		e := sim.New(1)
		n := New(e, netCfg())
		var got []NodeID
		var at []sim.Time
		n.Attach(1, func(m Message) {})
		n.Attach(2, func(m Message) {})
		n.Attach(3, func(m Message) { got = append(got, m.From); at = append(at, e.Now()) })
		e.Schedule(0, func() {
			for _, from := range senders {
				n.Send(Message{From: from, To: 3, Size: 1000})
			}
		})
		e.Run()
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("send order %v: delivered from %v, want [1 2]", senders, got)
		}
		if at[0] != at[1] {
			t.Fatalf("send order %v: deliveries at %v did not collide", senders, at)
		}
	}
}

// Delivery records go back on the freelist, so once a round of sends has
// been delivered the next round allocates nothing.
func TestDeliveryRecordsReused(t *testing.T) {
	e := sim.New(1)
	n := New(e, netCfg())
	delivered := 0
	n.Attach(1, func(m Message) {})
	n.Attach(2, func(m Message) { delivered++ })
	round := func() {
		for i := 0; i < 8; i++ {
			n.Send(Message{From: 1, To: 2, Size: 100})
		}
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a round of 8 sends allocated %v times, want 0", allocs)
	}
	if delivered != 8*12 {
		t.Fatalf("delivered = %d, want %d", delivered, 8*12)
	}
}
