package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramcloud/internal/wire"
)

// Tests for who writes and who serves: the enqueuing goroutine or the
// flusher, the connection's reader or the pool. They read the counters
// connWriter and tcpListener keep for exactly this purpose.

// clientStats returns the writer counters of conn's current socket.
func clientStats(tb testing.TB, conn Conn) writerStats {
	tb.Helper()
	c := conn.(*tcpConn)
	c.mu.Lock()
	w := c.w
	c.mu.Unlock()
	if w == nil {
		tb.Fatal("connection is down")
	}
	return w.snapshot()
}

// serverStats sums the writer counters over ln's live connections.
func serverStats(ln Listener) writerStats {
	l := ln.(*tcpListener)
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum writerStats
	for _, sc := range l.conns {
		s := sc.w.snapshot()
		sum.inlineWrites += s.inlineWrites
		sum.flusherWrites += s.flusherWrites
		sum.frames += s.frames
	}
	return sum
}

// TestTCPCallStaysOnCallerAndReader: a synchronous call on an idle
// connection wakes no flusher and no pool worker on either side.
func TestTCPCallStaysOnCallerAndReader(t *testing.T) {
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const calls = 1000
	for i := 0; i < calls; i++ {
		if _, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	want := writerStats{inlineWrites: calls, flusherWrites: 0, frames: calls}
	if got := clientStats(t, conn); got != want {
		t.Errorf("client writer: got %+v, want %+v", got, want)
	}
	if got := serverStats(ln); got != want {
		t.Errorf("server writer: got %+v, want %+v", got, want)
	}
	l := ln.(*tcpListener)
	if r, p := l.readerServed.Load(), l.poolServed.Load(); r != calls || p != 0 {
		t.Errorf("served on the reader %d, handed to the pool %d; want %d and 0", r, p, calls)
	}
}

// TestTCPStartWritesInlineOnlyWithNothingInFlight: a Start writes its own
// frame only when the connection has no other call in flight. The first
// Start of a burst finds none and may write inline; the rest find it
// pending and keep coalescing behind the flusher's writes. A lone
// Start+Wait loop always finds the connection empty and never wakes the
// flusher.
func TestTCPStartWritesInlineOnlyWithNothingInFlight(t *testing.T) {
	// Control-plane requests run on the pool and may block: the handler
	// holds each one until the test has issued its whole burst, so no
	// response can empty the pending table in the middle of one.
	const window, rounds = 16, 100
	gate := make(chan struct{}, window) // one token per held request of a burst
	echo := echoHandler()
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		if _, ok := msg.(*wire.GetTabletMapReq); ok {
			<-gate
		}
		return echo.ServeRPC(remote, msg)
	}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("bursts", func(t *testing.T) {
		conn, err := tr.Dial(ln.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		st := conn.(Starter)
		var win [window]PendingCall
		for r := 0; r < rounds; r++ {
			for j := range win {
				if win[j], err = st.Start(ctx, &wire.GetTabletMapReq{}); err != nil {
					t.Fatalf("start: %v", err)
				}
			}
			for range win {
				gate <- struct{}{}
			}
			for j := range win {
				if _, err := win[j].Wait(ctx); err != nil {
					t.Fatalf("wait: %v", err)
				}
			}
		}
		got := clientStats(t, conn)
		if got.inlineWrites > rounds || got.frames != window*rounds {
			t.Errorf("client writer: got %+v, want at most one inline write per burst (%d) and %d frames", got, rounds, window*rounds)
		}
		if got.inlineWrites == 0 {
			t.Errorf("client writer: got %+v, want a burst on an empty connection to start with an inline write", got)
		}
		if fl := got.frames - got.inlineWrites; got.flusherWrites >= fl {
			t.Errorf("client writer: the flusher wrote %d frames in %d writes, want more than one frame per write", fl, got.flusherWrites)
		}
	})

	t.Run("lone", func(t *testing.T) {
		conn, err := tr.Dial(ln.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		st := conn.(Starter)
		const calls = 1000
		for i := 0; i < calls; i++ {
			p, err := st.Start(ctx, &wire.ReadReq{Table: 1, Key: []byte{byte(i), byte(i >> 8)}})
			if err != nil {
				t.Fatalf("start %d: %v", i, err)
			}
			if _, err := p.Wait(ctx); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		}
		want := writerStats{inlineWrites: calls, flusherWrites: 0, frames: calls}
		if got := clientStats(t, conn); got != want {
			t.Errorf("client writer: got %+v, want %+v", got, want)
		}
	})
}

// gateConn is a net.Conn whose Write parks until the test lets it
// through or fails it, so a write can be held "in flight". Only the
// methods connWriter uses are implemented.
type gateConn struct {
	net.Conn
	entered chan struct{} // one token per Write that has started
	release chan error    // one value per Write: nil completes it, an error fails it
	wrote   chan []byte   // the bytes of each completed Write
}

func newGateConn() *gateConn {
	// Buffered well beyond the handful of writes a test performs, so a
	// Write parks on release only.
	return &gateConn{
		entered: make(chan struct{}, 64),
		release: make(chan error),
		wrote:   make(chan []byte, 64),
	}
}

func (g *gateConn) SetWriteDeadline(time.Time) error { return nil }

func (g *gateConn) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	if err := <-g.release; err != nil {
		return 0, err
	}
	g.wrote <- append([]byte(nil), p...)
	return len(p), nil
}

// recv receives from ch or fails the test after a second.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// frameIDs decodes the RPC ids of the frames in one write.
func frameIDs(t *testing.T, b []byte) []uint64 {
	t.Helper()
	var ids []uint64
	for r := bytes.NewReader(b); r.Len() > 0; {
		env, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("written bytes do not decode: %v", err)
		}
		ids = append(ids, env.RPCID)
	}
	return ids
}

// TestTCPWriterHandsBackToFlusher: a frame enqueued while an inline
// write is in flight reaches the wire with no further enqueue — the
// inline writer, which writes once and leaves, hands it to the flusher.
func TestTCPWriterHandsBackToFlusher(t *testing.T) {
	for _, inline := range []bool{true, false} {
		g := newGateConn()
		w := newConnWriter(g, time.Second, func() { t.Error("onDead on a healthy socket") })

		first := make(chan error, 1)
		go func() { first <- w.enqueue(1, &wire.PingReq{Seq: 1}, true) }()
		recv(t, g.entered, "the inline write to start")

		// The socket is taken: a second enqueuer of either kind appends
		// and returns without writing.
		second := make(chan error, 1)
		go func() { second <- w.enqueue(2, &wire.PingReq{Seq: 2}, inline) }()
		if err := recv(t, second, "the second enqueue to return"); err != nil {
			t.Fatalf("second enqueue: %v", err)
		}
		if n := len(g.entered); n != 0 {
			t.Fatalf("%d writes started while one was in flight", n)
		}

		g.release <- nil
		if err := recv(t, first, "the inline enqueue to return"); err != nil {
			t.Fatalf("first enqueue: %v", err)
		}
		recv(t, g.entered, "the flusher to pick the stranded frame up")
		g.release <- nil
		if ids := frameIDs(t, recv(t, g.wrote, "the first write")); len(ids) != 1 || ids[0] != 1 {
			t.Errorf("first write carried frames %v, want [1]", ids)
		}
		if ids := frameIDs(t, recv(t, g.wrote, "the second write")); len(ids) != 1 || ids[0] != 2 {
			t.Errorf("second write carried frames %v, want [2]", ids)
		}
		if got, want := w.snapshot(), (writerStats{inlineWrites: 1, flusherWrites: 1, frames: 2}); got != want {
			t.Errorf("inline=%v: got %+v, want %+v", inline, got, want)
		}
		w.close()
	}
}

// TestTCPWriterDeadOnce: whichever goroutine's write fails first — an
// inline writer's or the flusher's — the writer is poisoned, onDead runs
// exactly once and off the enqueuing goroutine, and no later enqueue
// queues or writes anything.
func TestTCPWriterDeadOnce(t *testing.T) {
	boom := errors.New("boom")
	for _, inline := range []bool{true, false} {
		g := newGateConn()
		var dead atomic.Int32
		var enqueuer sync.Mutex // held across enqueue: onDead must not need it released
		deadCh := make(chan struct{}, 8)
		w := newConnWriter(g, time.Second, func() {
			enqueuer.Lock()
			enqueuer.Unlock()
			dead.Add(1)
			deadCh <- struct{}{}
		})

		// One write in flight, performed inline or by the flusher...
		first := make(chan error, 1)
		go func() {
			enqueuer.Lock()
			defer enqueuer.Unlock()
			first <- w.enqueue(1, &wire.PingReq{Seq: 1}, inline)
		}()
		recv(t, g.entered, "the write to start")
		// ...with enqueuers of both kinds piling frames up behind it.
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := w.enqueue(uint64(2+i), &wire.PingReq{}, i%2 == 0); err != nil {
					t.Errorf("enqueue behind a write in flight: %v", err)
				}
			}(i)
		}
		wg.Wait()

		g.release <- boom
		recv(t, deadCh, "onDead")
		if err := recv(t, first, "the first enqueue to return"); err != nil {
			t.Errorf("inline=%v: the enqueue whose write failed returned %v; its frame was queued, the failure belongs to onDead", inline, err)
		}
		for i := 0; i < 4; i++ {
			if err := w.enqueue(100, &wire.PingReq{}, i%2 == 0); !errors.Is(err, boom) {
				t.Errorf("inline=%v: enqueue on a poisoned writer returned %v, want the first write error", inline, err)
			}
		}
		w.close()
		if n := len(g.entered); n != 0 {
			t.Errorf("inline=%v: %d writes started after the first one failed", inline, n)
		}
		if n := dead.Load(); n != 1 {
			t.Errorf("inline=%v: onDead ran %d times, want 1", inline, n)
		}
	}
}
