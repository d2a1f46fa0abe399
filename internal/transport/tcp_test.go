package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ramcloud/internal/wire"
)

// echoHandler answers ReadReq with a ReadResp carrying the key back as
// the value; everything else gets a StatusRetry ping.
func echoHandler() Handler {
	return HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		if r, ok := msg.(*wire.ReadReq); ok {
			return &wire.ReadResp{Status: wire.StatusOK, Value: append([]byte(nil), r.Key...), ValueLen: uint32(len(r.Key))}
		}
		return &wire.PingResp{}
	})
}

func TestTCPEcho(t *testing.T) {
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

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		key := []byte{byte('a' + i)}
		resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: key})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		rr, ok := resp.(*wire.ReadResp)
		if !ok || string(rr.Value) != string(key) {
			t.Fatalf("call %d: bad echo %#v", i, resp)
		}
	}
}

// TestTCPOutOfOrder proves responses are correlated by RPC id, not
// arrival order, and that a control-plane handler never occupies the
// connection's reader: while a CreateTableReq handler is parked, a read
// and a ping issued after it on the same connection are read, served
// and answered.
func TestTCPOutOfOrder(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		switch m := msg.(type) {
		case *wire.CreateTableReq:
			close(entered)
			<-release
			return &wire.CreateTableResp{Status: wire.StatusOK, Table: 7}
		case *wire.ReadReq:
			return &wire.ReadResp{Status: wire.StatusOK, Value: append([]byte(nil), m.Key...), ValueLen: uint32(len(m.Key))}
		case *wire.PingReq:
			return &wire.PingResp{Seq: m.Seq}
		}
		return nil
	})
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := conn.Call(ctx, &wire.CreateTableReq{Name: "slow", ServerSpan: 1})
		if err == nil {
			if m, ok := resp.(*wire.CreateTableResp); !ok || m.Table != 7 {
				err = errors.New("slow call got wrong response")
			}
		}
		slowDone <- err
	}()
	select {
	case <-entered:
	case <-ctx.Done():
		t.Fatal("slow handler never ran")
	}

	// Both complete while the slow one is still parked.
	fastCtx, fastCancel := context.WithTimeout(ctx, time.Second)
	defer fastCancel()
	resp, err := conn.Call(fastCtx, &wire.ReadReq{Table: 1, Key: []byte("fast")})
	if err != nil {
		t.Fatalf("read behind a parked handler: %v", err)
	}
	if string(resp.(*wire.ReadResp).Value) != "fast" {
		t.Fatalf("fast call got %q", resp.(*wire.ReadResp).Value)
	}
	resp, err = conn.Call(fastCtx, &wire.PingReq{Seq: 9})
	if err != nil {
		t.Fatalf("ping behind a parked handler: %v", err)
	}
	if m, ok := resp.(*wire.PingResp); !ok || m.Seq != 9 {
		t.Fatalf("ping got %#v", resp)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call resolved before its handler was released: %v", err)
	default:
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

func TestTCPDeadline(t *testing.T) {
	// Handler that never replies: the caller's context deadline must fire.
	h := HandlerFunc(func(remote string, msg wire.Message) wire.Message { return nil })
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = conn.Call(ctx, &wire.PingReq{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestTCPReconnect kills the listener mid-session and restarts it on the
// same port: the same Conn must fail fast on the dead socket, then
// transparently redial and succeed once the service is back.
func TestTCPReconnect(t *testing.T) {
	tr := &TCP{RedialBase: 5 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	ln, err := tr.Listen("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: []byte("x")}); err != nil {
		t.Fatalf("warm call: %v", err)
	}

	ln.Close()

	// Calls while the service is down fail (conn lost or dial refused) —
	// they must not hang.
	failCtx, failCancel := context.WithTimeout(context.Background(), 2*time.Second)
	_, err = conn.Call(failCtx, &wire.ReadReq{Table: 1, Key: []byte("down")})
	failCancel()
	if err == nil {
		t.Fatal("call against dead listener succeeded")
	}

	ln2, err := tr.Listen(addr, echoHandler())
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer ln2.Close()

	// The same Conn recovers without any explicit reset. Allow a few
	// attempts for the backoff gate to expire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: []byte("back")})
		if err == nil {
			if string(resp.(*wire.ReadResp).Value) != "back" {
				t.Fatalf("post-reconnect echo got %q", resp.(*wire.ReadResp).Value)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPClosedConn(t *testing.T) {
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
	conn.Close()
	_, err = conn.Call(context.Background(), &wire.PingReq{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestTCPFlusherStressTeardown hammers one Conn with a mix of
// synchronous Calls (which write inline when the socket is idle) and
// pipelined Start/Wait windows (which leave the write to the flusher)
// while the listener is repeatedly killed and restarted on the same
// port. This is the -race soak for the writer hand-over: enqueues and
// inline writes racing a mid-flight teardown, waiter slots recycling
// through the pool across ErrConnLost deliveries, and ctx-deadline
// deregistration racing the read loop. Every call must terminate — with
// a correctly-correlated echo, ErrConnLost, its context's error or a
// refused dial — the Conn must still work afterwards, and nothing may
// outlive it.
func TestTCPFlusherStressTeardown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr := &TCP{
		RedialBase:   time.Millisecond,
		RedialCap:    20 * time.Millisecond,
		FlushTimeout: 2 * time.Second,
	}
	ln, err := tr.Listen("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	st := conn.(Starter)

	// Chaos: bounce the listener a few times while callers are active,
	// leaving the final incarnation up so callers can drain successfully.
	finalLn := make(chan Listener, 1)
	go func() {
		cur := ln
		for i := 0; i < 5; i++ {
			time.Sleep(15 * time.Millisecond)
			cur.Close()
			for {
				next, err := tr.Listen(addr, echoHandler())
				if err == nil {
					cur = next
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		finalLn <- cur
	}()

	var wg sync.WaitGroup
	fatal := make(chan error, 64)
	report := func(err error) {
		select {
		case fatal <- err:
		default:
		}
	}
	check := func(ctx context.Context, key []byte, resp wire.Message, err error) {
		if err != nil {
			// Legal under chaos: the connection died under the call, the
			// call's own deadline fired, or the redial was refused.
			var dialErr *net.OpError
			if !errors.Is(err, ErrConnLost) && !errors.Is(err, ctx.Err()) && !errors.As(err, &dialErr) {
				report(fmt.Errorf("call failed with neither ErrConnLost, its context error nor a dial error: %w", err))
			}
			return
		}
		rr, ok := resp.(*wire.ReadResp)
		if !ok || string(rr.Value) != string(key) {
			report(errors.New("cross-correlated or corrupt response under teardown"))
		}
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				if i%3 == 0 {
					// Pipelined window of 4 on the shared flusher.
					type issued struct {
						pc  PendingCall
						key []byte
					}
					win := make([]issued, 0, 4)
					for j := 0; j < 4; j++ {
						key := []byte{byte(g), byte(i), byte(j)}
						pc, err := st.Start(ctx, &wire.ReadReq{Table: 1, Key: key})
						if err != nil {
							check(ctx, key, nil, err)
							continue
						}
						win = append(win, issued{pc, key})
					}
					for _, is := range win {
						resp, err := is.pc.Wait(ctx)
						check(ctx, is.key, resp, err)
					}
				} else {
					key := []byte{byte(g), byte(i), 0xff}
					resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: key})
					check(ctx, key, resp, err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	last := <-finalLn
	defer last.Close()
	close(fatal)
	for err := range fatal {
		t.Fatal(err)
	}

	// The Conn must recover against the final listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: []byte("alive")})
		cancel()
		if err == nil {
			if string(resp.(*wire.ReadResp).Value) != "alive" {
				t.Fatalf("post-chaos echo got %q", resp.(*wire.ReadResp).Value)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never recovered after chaos: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A socket generation retired twice would have delivered a second nil
	// into a waiter slot that is back in the pool: some later call would
	// then fail with a connection loss that never happened.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 500; i++ {
		key := []byte{byte(i), byte(i >> 8)}
		resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: key})
		if err != nil {
			t.Fatalf("call %d on the recovered conn: %v", i, err)
		}
		if string(resp.(*wire.ReadResp).Value) != string(key) {
			t.Fatalf("call %d on the recovered conn: stale response", i)
		}
	}

	// Readers, flushers, pool workers and the error path's onDead
	// goroutines all exit with their connection or listener.
	conn.Close()
	last.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after teardown, %d before the test", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPConcurrentCalls hammers one Conn from many goroutines; under
// -race this doubles as the data-race check on the correlation table.
func TestTCPConcurrentCalls(t *testing.T) {
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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte{byte(g), byte(i)}
				resp, err := conn.Call(ctx, &wire.ReadReq{Table: 1, Key: key})
				if err != nil {
					errs <- err
					return
				}
				if string(resp.(*wire.ReadResp).Value) != string(key) {
					errs <- errors.New("cross-correlated response")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
