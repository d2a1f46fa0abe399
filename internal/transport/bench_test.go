package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"ramcloud/internal/wire"
)

// Loopback micro-benchmarks for the real TCP path. These quantify the
// fast-path work per RPC — framing, coalescing, correlation, dispatch —
// with allocs/op as the regression canary (PERFORMANCE.md, "Before the
// benchmark", has PR 10's before/after). The handler answers reads with
// a fixed 8-byte value.
// Each benchmark also prints which path its traffic shape took:
// inline-writes/op (client frames written by the calling goroutine),
// reader-served/op (requests served on the server's reader instead of
// the pool) and frames/write (client-side coalescing).

var benchValue = []byte("8bytesXY")

// benchServer returns a connection to a fresh loopback listener and a
// func that reports the path metrics and tears both down.
func benchServer(b *testing.B) (Conn, func()) {
	b.Helper()
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		switch m := msg.(type) {
		case *wire.ReadReq:
			return &wire.ReadResp{Status: wire.StatusOK, Version: 1, ValueLen: 8, Value: benchValue}
		case *wire.MultiReadReq:
			items := make([]wire.MultiReadResult, len(m.Items))
			for i := range items {
				items[i] = wire.MultiReadResult{Status: wire.StatusOK, Version: 1, ValueLen: 8, Value: benchValue}
			}
			return &wire.MultiReadResp{Status: wire.StatusOK, Items: items}
		default:
			return &wire.PingResp{}
		}
	}))
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	return conn, func() {
		b.StopTimer()
		w := clientStats(b, conn)
		b.ReportMetric(float64(w.inlineWrites)/float64(b.N), "inline-writes/op")
		b.ReportMetric(float64(ln.(*tcpListener).readerServed.Load())/float64(b.N), "reader-served/op")
		b.ReportMetric(float64(w.frames)/float64(w.inlineWrites+w.flusherWrites), "frames/write")
		conn.Close()
		ln.Close()
	}
}

// BenchmarkTCPCall is one synchronous request-response at a time: the
// latency floor of the real path.
func BenchmarkTCPCall(b *testing.B) {
	conn, done := benchServer(b)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req := &wire.ReadReq{Table: 1, Key: []byte("user0000000042")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPCallParallel is two goroutines in synchronous Call on one
// connection — the shape of the tcp-read workload, where a call can find
// the other caller's write in flight or its request still buffered.
func BenchmarkTCPCallParallel(b *testing.B) {
	conn, done := benchServer(b)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		n := b.N / 2
		if g == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.ReadReq{Table: 1, Key: []byte("user0000000042")}
			for i := 0; i < n; i++ {
				if _, err := conn.Call(ctx, req); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTCPPipelined keeps a 16-deep window of Start()ed calls in
// flight on one connection — the coalescing flusher batches their
// frames into shared writes, so this is the throughput configuration.
func BenchmarkTCPPipelined(b *testing.B) {
	conn, done := benchServer(b)
	defer done()
	st, ok := conn.(Starter)
	if !ok {
		b.Fatal("TCP conn does not implement Starter")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req := &wire.ReadReq{Table: 1, Key: []byte("user0000000042")}
	const window = 16
	ring := make([]PendingCall, 0, window)
	head := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ring)-head == window {
			if _, err := ring[head].Wait(ctx); err != nil {
				b.Fatal(err)
			}
			head++
			if head == len(ring) {
				ring = ring[:0]
				head = 0
			}
		}
		p, err := st.Start(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		ring = append(ring, p)
	}
	for ; head < len(ring); head++ {
		if _, err := ring[head].Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPMultiRead amortizes one RPC over a 16-item batch;
// per-item cost is ns/op divided by 16.
func BenchmarkTCPMultiRead(b *testing.B) {
	conn, done := benchServer(b)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	const batch = 16
	items := make([]wire.MultiReadItem, batch)
	for i := range items {
		items[i] = wire.MultiReadItem{Table: 1, Key: []byte("user0000000042")}
	}
	req := &wire.MultiReadReq{Items: items}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
