package transport

import (
	"bytes"
	"context"
	"hash/crc32"
	"testing"
	"time"

	"ramcloud/internal/wire"
)

// A server connection decodes each request as a view of a pooled frame
// buffer and returns the buffer once the request has been served. These
// tests would see a buffer released too early as another request's bytes
// in the handler's hands or in an echoed response.

// scribbleFramePool overwrites the buffers the pool hands this goroutine
// next, the way later frames would, only at once: a buffer that went back
// to the pool while a request still pointed into it does not survive this.
func scribbleFramePool() {
	var held [32]*[]byte
	for i := range held {
		held[i] = frameBufPool.Get().(*[]byte)
		b := (*held[i])[:cap(*held[i])]
		for j := range b {
			b[j] = 0xA5
		}
	}
	for _, bp := range held {
		frameBufPool.Put(bp)
	}
}

// viewWindow issues one window of pipelined WriteReqs with distinct 1 KiB
// values and hands each response to check along with what was sent.
func viewWindow(t *testing.T, conn Conn, round int, check func(sent *wire.WriteReq, resp wire.Message)) {
	t.Helper()
	const window = 16
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := conn.(Starter)
	var reqs [window]*wire.WriteReq
	var calls [window]PendingCall
	for i := range reqs {
		n := byte(round*window + i)
		reqs[i] = &wire.WriteReq{Table: 1, Key: []byte{'k', n}, ValueLen: 1024, Value: bytes.Repeat([]byte{n}, 1024)}
		var err error
		if calls[i], err = st.Start(ctx, reqs[i]); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	for i := range calls {
		resp, err := calls[i].Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		check(reqs[i], resp)
	}
}

// TestTCPRequestViewOutlivesSlowHandler: a handler that sleeps and then
// re-reads its request still sees its own bytes, whether it ran on the
// connection's reader or on a pool worker while the reader went on reading
// frames into other buffers.
func TestTCPRequestViewOutlivesSlowHandler(t *testing.T) {
	sum := func(m *wire.WriteReq) uint64 {
		return uint64(crc32.Update(crc32.ChecksumIEEE(m.Key), crc32.IEEETable, m.Value))
	}
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		time.Sleep(time.Millisecond)
		scribbleFramePool()
		return &wire.WriteResp{Status: wire.StatusOK, Version: sum(msg.(*wire.WriteReq))}
	}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	l := ln.(*tcpListener)
	for round := 0; round < 8 || l.poolServed.Load() == 0 || l.readerServed.Load() == 0; round++ {
		if round == 200 {
			t.Fatalf("after %d windows: served on the reader %d, by the pool %d; want both release points exercised",
				round, l.readerServed.Load(), l.poolServed.Load())
		}
		viewWindow(t, conn, round, func(sent *wire.WriteReq, resp wire.Message) {
			if got, want := resp.(*wire.WriteResp).Version, sum(sent); got != want {
				t.Fatalf("request %q: handler read checksum %#x, sent %#x", sent.Key, got, want)
			}
		})
	}
}

// TestTCPEchoedRequestView: a handler may return its request as the
// response. The response then aliases the frame buffer, so the buffer must
// not be released before the response has been encoded.
func TestTCPEchoedRequestView(t *testing.T) {
	tr := &TCP{}
	ln, err := tr.Listen("127.0.0.1:0", HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		scribbleFramePool()
		return msg
	}))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for round := 0; round < 50; round++ {
		viewWindow(t, conn, round, func(sent *wire.WriteReq, resp wire.Message) {
			echo, ok := resp.(*wire.WriteReq)
			if !ok || echo.Table != sent.Table || !bytes.Equal(echo.Key, sent.Key) || !bytes.Equal(echo.Value, sent.Value) {
				t.Fatalf("request %q came back as %T %.40v", sent.Key, resp, resp)
			}
		})
	}
}
