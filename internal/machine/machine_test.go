package machine

import (
	"testing"

	"ramcloud/internal/sim"
)

func newNode(t *testing.T) (*sim.Engine, *Node) {
	t.Helper()
	e := sim.New(1)
	return e, NewNode(e, 0, Grid5000Nancy())
}

func TestSpec(t *testing.T) {
	s := Grid5000Nancy()
	if s.Cores != 4 || s.DRAMBytes != 16<<30 {
		t.Fatalf("unexpected spec %+v", s)
	}
}

func TestAddBusySingleBucket(t *testing.T) {
	_, n := newNode(t)
	n.AddBusy(sim.Time(100*sim.Millisecond), sim.Time(600*sim.Millisecond))
	if got := n.UtilSecond(0); got != 0.5/4 {
		t.Fatalf("util = %v, want %v", got, 0.5/4)
	}
}

func TestAddBusySpansBuckets(t *testing.T) {
	_, n := newNode(t)
	n.AddBusy(sim.Time(500*sim.Millisecond), sim.Time(2500*sim.Millisecond))
	want := []float64{0.5 / 4, 1.0 / 4, 0.5 / 4}
	for k, w := range want {
		if got := n.UtilSecond(k); got != w {
			t.Fatalf("util[%d] = %v, want %v", k, got, w)
		}
	}
}

func TestSubBusyCorrection(t *testing.T) {
	_, n := newNode(t)
	n.AddBusy(0, sim.Time(sim.Second))
	n.SubBusy(sim.Time(500*sim.Millisecond), sim.Time(sim.Second))
	if got := n.UtilSecond(0); got != 0.5/4 {
		t.Fatalf("util = %v, want %v", got, 0.5/4)
	}
}

func TestUtilClamped(t *testing.T) {
	_, n := newNode(t)
	for i := 0; i < 10; i++ { // 10 core-seconds in a 4-core second
		n.AddBusy(0, sim.Time(sim.Second))
	}
	if got := n.UtilSecond(0); got != 1.0 {
		t.Fatalf("util = %v, want clamped to 1", got)
	}
	for i := 0; i < 20; i++ { // drive bucket 0 negative
		n.SubBusy(0, sim.Time(sim.Second))
	}
	if got := n.UtilSecond(0); got != 0 {
		t.Fatalf("util = %v, want clamped to 0", got)
	}
}

func TestPinnedCoresIntegration(t *testing.T) {
	e, n := newNode(t)
	e.Schedule(0, func() { n.PinCores(1) })
	e.Schedule(2*sim.Second, func() { n.PinCores(1) })  // second core pinned at t=2s
	e.Schedule(3*sim.Second, func() { n.PinCores(-2) }) // all released at t=3s
	e.Schedule(4*sim.Second, func() { n.FlushAccounting(e.Now()) })
	e.Run()
	want := []float64{0.25, 0.25, 0.5, 0}
	for k, w := range want {
		if got := n.UtilSecond(k); got != w {
			t.Fatalf("util[%d] = %v, want %v", k, got, w)
		}
	}
}

func TestPinnedFlushMidSecond(t *testing.T) {
	e, n := newNode(t)
	e.Schedule(0, func() { n.PinCores(1) })
	e.Schedule(sim.Duration(1500*sim.Millisecond), func() { n.FlushAccounting(e.Now()) })
	e.Run()
	if got := n.UtilSecond(0); got != 0.25 {
		t.Fatalf("util[0] = %v, want 0.25", got)
	}
	if got := n.UtilSecond(1); got != 0.125 {
		t.Fatalf("util[1] = %v, want 0.125", got)
	}
}

func TestKillStopsPinnedAccounting(t *testing.T) {
	e, n := newNode(t)
	e.Schedule(0, func() { n.PinCores(1) })
	e.Schedule(sim.Duration(sim.Second), func() { n.Kill() })
	e.Schedule(3*sim.Second, func() { n.FlushAccounting(e.Now()) })
	e.Run()
	if n.Alive() {
		t.Fatal("node should be dead")
	}
	if got := n.UtilSecond(0); got != 0.25 {
		t.Fatalf("util[0] = %v, want 0.25", got)
	}
	if got := n.UtilSecond(1); got != 0 {
		t.Fatalf("util[1] = %v, want 0 after kill", got)
	}
	if n.PinnedCores() != 0 {
		t.Fatalf("pinned = %d after kill", n.PinnedCores())
	}
}

func TestPinnedOverCommitPanics(t *testing.T) {
	_, n := newNode(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.PinCores(5)
}

func TestMeanUtilAndSeries(t *testing.T) {
	_, n := newNode(t)
	n.AddBusy(0, sim.Time(sim.Second))                      // 25% in second 0
	n.AddBusy(sim.Time(sim.Second), sim.Time(2*sim.Second)) // 25% in second 1
	n.AddBusy(sim.Time(sim.Second), sim.Time(2*sim.Second)) // +25% in second 1
	if got := n.MeanUtil(0, 2); got != (0.25+0.5)/2 {
		t.Fatalf("mean = %v", got)
	}
	if u0, u1 := n.UtilSecond(0), n.UtilSecond(1); u0 != 0.25 || u1 != 0.5 {
		t.Fatalf("util = %v, %v", u0, u1)
	}
	if n.MeanUtil(2, 2) != 0 {
		t.Fatal("empty mean must be 0")
	}
}
