package main

import (
	"context"
	"fmt"
	"sync"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// memTransport is an in-memory transport.Interface: a call runs the
// peer's handler on the caller's goroutine and hands the response message
// back by reference — no codec, no frame, no socket, no flusher or
// dispatch pool. The same client and servers run on it as on
// transport.TCP, so "TCP op − direct op" is the network path's share of
// an operation (the realnode.direct.* rung).
type memTransport struct {
	mu        sync.Mutex
	next      int
	listeners map[string]*memListener
}

func newMemTransport() *memTransport {
	return &memTransport{listeners: make(map[string]*memListener)}
}

type memListener struct {
	tr   *memTransport
	addr string
	h    transport.Handler

	mu     sync.Mutex
	closed bool
}

// Listen ignores the requested address and binds a fresh "mem-N" one,
// like ":0" does on TCP.
func (t *memTransport) Listen(_ string, h transport.Handler) (transport.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	l := &memListener{tr: t, addr: fmt.Sprintf("mem-%d", t.next), h: h}
	t.listeners[l.addr] = l
	return l, nil
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.tr.mu.Lock()
	delete(l.tr.listeners, l.addr)
	l.tr.mu.Unlock()
	return nil
}

func (l *memListener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Dial succeeds even when nothing listens at addr yet, as the lazy TCP
// dial does; the first call then fails with ErrConnLost.
func (t *memTransport) Dial(addr string) (transport.Conn, error) {
	return &memConn{tr: t, addr: addr, remote: "mem-client"}, nil
}

type memConn struct {
	tr     *memTransport
	addr   string
	remote string

	mu     sync.Mutex
	closed bool
}

func (c *memConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *memConn) Call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, transport.ErrClosed
	}
	c.tr.mu.Lock()
	l := c.tr.listeners[c.addr]
	c.tr.mu.Unlock()
	if l == nil || l.isClosed() {
		return nil, transport.ErrConnLost
	}
	resp := l.h.ServeRPC(c.remote, msg)
	if l.isClosed() {
		// The listener was severed while the request was in service: the
		// response has no connection to travel on.
		return nil, transport.ErrConnLost
	}
	if resp == nil {
		// A dropped request is a lost datagram: the caller times out.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return resp, nil
}

// Start implements transport.Starter. With no wire to keep full the call
// completes before Start returns; Wait hands over the stored outcome.
func (c *memConn) Start(ctx context.Context, msg wire.Message) (transport.PendingCall, error) {
	resp, err := c.Call(ctx, msg)
	if err == transport.ErrClosed {
		return nil, err
	}
	return &memPending{resp: resp, err: err}, nil
}

type memPending struct {
	resp wire.Message
	err  error
}

func (p *memPending) Wait(context.Context) (wire.Message, error) { return p.resp, p.err }
