package realnode

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// isOpen reports whether d's Done channel is still open.
func isOpen(d *deadline) bool {
	select {
	case <-d.Done():
		return false
	default:
		return true
	}
}

// listenTCP serves h on a loopback port for the length of the test.
func listenTCP(t *testing.T, tr *transport.TCP, h transport.HandlerFunc) string {
	t.Helper()
	ln, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr()
}

// TestAttemptTimesOutAtItsDeadline: an attempt whose request the server
// drops fails with context.DeadlineExceeded, no earlier than RPCTimeout,
// through the same <-ctx.Done() a context.WithTimeout would have closed —
// and the deadline that fired is never handed out again.
func TestAttemptTimesOutAtItsDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	tr := &transport.TCP{}
	addr := listenTCP(t, tr, func(string, wire.Message) wire.Message { return nil })

	// A client whose whole map is one tablet on the silent server.
	c := NewClient(tr, "", ClientConfig{RPCTimeout: timeout})
	defer c.Close()
	c.tablets = []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1}}
	c.addrs[1] = addr

	// One attempt: a Future's attempt zero, resolved on its own.
	start := time.Now()
	f := c.GetAsync(1, []byte("k"))
	if f.pc == nil {
		t.Fatal("the attempt did not start")
	}
	_, err := f.resolve()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("attempt against a silent server: %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("attempt gave up after %v, before its %v deadline", took, timeout)
	}

	// The same on a deadline this test holds, so it can watch what
	// release does with a fired one.
	conn, err := c.serverConn(1)
	if err != nil {
		t.Fatal(err)
	}
	fired := newDeadline(timeout)
	if _, err := conn.Call(fired, &wire.ReadReq{Table: 1, Key: []byte("k")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call: %v, want context.DeadlineExceeded", err)
	}
	if isOpen(fired) || fired.Err() != context.DeadlineExceeded {
		t.Fatalf("after its deadline: Done open %v, Err %v", isOpen(fired), fired.Err())
	}
	fired.release()
	// fired stays referenced below, so its address cannot be reused.
	for i := 0; i < 100; i++ {
		d := newDeadline(time.Hour)
		if d == fired {
			t.Fatal("a deadline that fired was handed out again")
		}
		if !isOpen(d) || d.Err() != nil {
			t.Fatalf("fresh deadline %d: Done open %v, Err %v", i, isOpen(d), d.Err())
		}
		defer d.release() // held until the end so the loop sees 100 distinct objects
	}
	if isOpen(fired) {
		t.Fatal("a fired deadline's Done reopened")
	}
}

// TestDeadlineReleaseBeforeExpiry: releasing early leaves Done open and
// Err nil, and whatever the pool hands out next — the same object or
// another, sync.Pool promises neither — has a fresh deadline, an open
// Done, and closes it on time.
func TestDeadlineReleaseBeforeExpiry(t *testing.T) {
	d := newDeadline(time.Hour)
	if at, ok := d.Deadline(); !ok || time.Until(at) < 59*time.Minute {
		t.Fatalf("Deadline() = %v, %v; want about an hour from now", at, ok)
	}
	if d.Value("anything") != nil {
		t.Fatal("a deadline carries no values")
	}
	d.release()
	if !isOpen(d) || d.Err() != nil {
		t.Fatalf("released before its deadline: Done open %v, Err %v", isOpen(d), d.Err())
	}

	const timeout = 30 * time.Millisecond
	start := time.Now()
	next := newDeadline(timeout)
	at, ok := next.Deadline()
	if !ok || at.Before(start.Add(timeout)) || at.After(time.Now().Add(timeout)) {
		t.Fatalf("next Deadline() = %v, %v; want %v after its creation", at, ok, timeout)
	}
	if !isOpen(next) || next.Err() != nil {
		t.Fatalf("next deadline: Done open %v, Err %v", isOpen(next), next.Err())
	}
	select {
	case <-next.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done never closed")
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("Done closed after %v, before the %v deadline", took, timeout)
	}
	if next.Err() != context.DeadlineExceeded {
		t.Fatalf("Err after the deadline: %v", next.Err())
	}
	next.release()
}

// TestDeadlinePoolUnderChurn: 10,000 attempts from 8 goroutines with a
// 1 ms deadline against a handler that is sometimes slower than that.
// Deadlines fire and are released in every interleaving of the two; a
// recycled object whose timer had fired would panic on the second close,
// and one recycled with a closed Done would fail its attempt before the
// deadline it reports.
func TestDeadlinePoolUnderChurn(t *testing.T) {
	const (
		workers  = 8
		attempts = 10_000 / workers
		timeout  = time.Millisecond
	)
	tr := &transport.TCP{}
	var served atomic.Uint64
	addr := listenTCP(t, tr, func(_ string, msg wire.Message) wire.Message {
		if served.Add(1)%8 == 0 {
			time.Sleep(2 * timeout)
		}
		return &wire.ReadResp{Status: wire.StatusOK}
	})

	var timedOut, answered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := tr.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			req := &wire.ReadReq{Table: 1, Key: []byte("k")}
			for i := 0; i < attempts; i++ {
				d := newDeadline(timeout)
				at, _ := d.Deadline()
				// A timer cannot fire early, so a Done closed before the
				// deadline was closed by an earlier attempt's timer.
				if !isOpen(d) && time.Now().Before(at) {
					t.Errorf("attempt %d: handed a deadline whose Done is already closed", i)
					return
				}
				_, err := conn.Call(d, req)
				switch {
				case err == nil:
					answered.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					if time.Now().Before(at) {
						t.Errorf("attempt %d: timed out before its deadline", i)
						return
					}
					timedOut.Add(1)
				default:
					t.Errorf("attempt %d: %v", i, err)
					return
				}
				d.release()
			}
		}()
	}
	wg.Wait()
	t.Logf("%d answered, %d timed out", answered.Load(), timedOut.Load())
	if answered.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("%d answered, %d timed out: want both outcomes exercised", answered.Load(), timedOut.Load())
	}
}
