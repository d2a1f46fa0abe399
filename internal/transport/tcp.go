package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ramcloud/internal/wire"
)

// TCP is the real-socket backend. The zero value is usable; the fields
// tune connection management.
type TCP struct {
	// RedialBase is the pause after the first failed attempt; each
	// consecutive failure doubles it up to RedialCap. Defaults 50ms / 2s.
	RedialBase time.Duration
	RedialCap  time.Duration
	// FlushTimeout bounds one write of queued frames, whichever
	// goroutine performs it; a peer that stalls a write this long is
	// treated as dead. Default 30s.
	FlushTimeout time.Duration
}

// dialTimeout bounds one connection attempt.
const dialTimeout = 2 * time.Second

func (t *TCP) redialBase() time.Duration {
	if t.RedialBase > 0 {
		return t.RedialBase
	}
	return 50 * time.Millisecond
}

func (t *TCP) redialCap() time.Duration {
	if t.RedialCap > 0 {
		return t.RedialCap
	}
	return 2 * time.Second
}

func (t *TCP) flushTimeout() time.Duration {
	if t.FlushTimeout > 0 {
		return t.FlushTimeout
	}
	return 30 * time.Second
}

// workers sizes the per-listener dispatch pool: 8*GOMAXPROCS clamped to
// [8, 64]. The pool serves what a connection's reader must not or need not
// serve itself: every control-plane request (a handler may block on RPCs
// of its own) and any request with more frames already buffered behind
// it. When every worker is busy the reader serves overflow requests
// itself, so a request flood degrades into backpressure instead of a
// goroutine per request.
func workers() int {
	n := 8 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// waiter is one pending-call slot: the buffered channel a response (or
// the nil that reports connection loss) is delivered on, plus the
// conn/id pair needed to deregister on a deadline. It doubles as the
// PendingCall handed back by Start, so the whole in-flight bookkeeping
// for one RPC is a single pooled object — the pre-pooling transport
// allocated a fresh channel AND a call struct per RPC. The protocol
// guarantees exactly one send per slot taken out of the pending map by
// the read loop or teardown, so a slot is back in the pool as soon as
// its call resolves.
type waiter struct {
	ch chan wire.Message
	c  *tcpConn
	id uint64
}

var waiterPool = sync.Pool{
	New: func() any { return &waiter{ch: make(chan wire.Message, 1)} },
}

// Dial returns a connection to addr. The socket is established lazily
// on the first Call and re-established transparently (with capped
// exponential backoff) after failures, so a Conn survives a peer
// restart.
func (t *TCP) Dial(addr string) (Conn, error) {
	return &tcpConn{tr: t, addr: addr, pending: make(map[uint64]*waiter)}, nil
}

// tcpConn is one logical client connection: a socket that is redialed
// as needed, its coalescing writer, and the RPC-id correlation table.
type tcpConn struct {
	tr   *TCP
	addr string

	mu        sync.Mutex
	nc        net.Conn    // nil while down
	w         *connWriter // writer for the current socket generation
	pending   map[uint64]*waiter
	nextID    uint64
	fails     int       // consecutive failed dials, drives backoff
	notBefore time.Time // no redial attempt before this instant
	closed    bool
}

// ensure returns the current socket generation's writer, dialing (with
// the backoff gate) if the connection is down. Callers must NOT hold
// c.mu.
func (c *tcpConn) ensure(ctx context.Context) (*connWriter, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.nc != nil {
			w := c.w
			c.mu.Unlock()
			return w, nil
		}
		if wait := time.Until(c.notBefore); wait > 0 {
			c.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c.mu.Lock()
			continue
		}
		// Dial under the lock: concurrent callers queue behind one
		// attempt instead of racing several sockets. The attempt is
		// bounded by dialTimeout.
		nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			backoff := c.tr.redialBase() << c.fails
			if limit := c.tr.redialCap(); backoff > limit || backoff <= 0 {
				backoff = limit
			}
			if c.fails < 30 {
				c.fails++
			}
			c.notBefore = time.Now().Add(backoff)
			c.mu.Unlock()
			return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
		}
		c.fails = 0
		c.nc = nc
		c.w = newConnWriter(nc, c.tr.flushTimeout(), func() { c.teardown(nc) })
		go c.readLoop(nc)
		c.mu.Unlock()
		return c.w, nil
	}
}

// readLoop drains response frames from one socket generation and
// resolves pending calls by RPC id. Any read or decode error retires
// the socket: every call still pending on it fails with ErrConnLost,
// and the next Call redials.
func (c *tcpConn) readLoop(nc net.Conn) {
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		env, err := ReadFrame(br)
		if err != nil {
			c.teardown(nc)
			return
		}
		c.mu.Lock()
		w, ok := c.pending[env.RPCID]
		if ok {
			delete(c.pending, env.RPCID)
		}
		c.mu.Unlock()
		if ok {
			w.ch <- env.Msg // buffered; never blocks
		}
		// Unknown id: a response that outlived its caller's deadline.
		// Dropped, exactly like the simulated endpoint does.
	}
}

// teardown retires one socket generation, failing its pending calls
// with a nil delivery (the waiter-pool analogue of a closed channel).
func (c *tcpConn) teardown(nc net.Conn) {
	nc.Close()
	c.mu.Lock()
	var w *connWriter
	var failed []*waiter
	if c.nc == nc {
		c.nc = nil
		w = c.w
		c.w = nil
		c.notBefore = time.Now().Add(c.tr.redialBase())
		failed = make([]*waiter, 0, len(c.pending))
		for id, pw := range c.pending {
			delete(c.pending, id)
			failed = append(failed, pw)
		}
	}
	c.mu.Unlock()
	if w != nil {
		w.close()
	}
	for _, pw := range failed {
		pw.ch <- nil
	}
}

// Start implements Starter: it registers the call and returns without
// waiting for the response, so a caller can keep a window of requests in
// flight on one connection without a goroutine per call. Who writes the
// frame is decided from what the connection observes, not from an option:
// with no other call in flight there is nothing to coalesce behind, so
// the caller writes its own frame, as Call does, and a lone Start+Wait
// costs no flusher wake-up; with a call in flight the frame is left to
// the flusher, so a window kept full coalesces as before. This is Nagle's
// rule at RPC granularity. (Writing inline whenever the socket is idle
// was measured and rejected: it takes a pipelining caller from 13 frames
// per write to 1.0 — see PERFORMANCE.md.)
func (c *tcpConn) Start(ctx context.Context, msg wire.Message) (PendingCall, error) {
	pw, err := c.start(ctx, msg, false)
	if err != nil {
		return nil, err // not pw: a nil *waiter is a non-nil PendingCall
	}
	return pw, nil
}

// start registers a pending-call slot and enqueues msg. This goroutine
// writes the frame itself, when the socket is idle, if the caller is
// about to block for the reply anyway (blocking) or if no other call is
// in flight on the connection.
func (c *tcpConn) start(ctx context.Context, msg wire.Message, blocking bool) (*waiter, error) {
	w, err := c.ensure(ctx)
	if err != nil {
		return nil, err
	}
	pw := waiterPool.Get().(*waiter)
	pw.c = c
	c.mu.Lock()
	inline := blocking || len(c.pending) == 0
	c.nextID++
	id := c.nextID
	pw.id = id
	c.pending[id] = pw
	c.mu.Unlock()

	if err := w.enqueue(id, msg, inline); err != nil {
		// Writer already poisoned: the frame was never queued. Remove
		// the slot if teardown hasn't already claimed it.
		c.mu.Lock()
		if c.pending[id] == pw {
			delete(c.pending, id)
			c.mu.Unlock()
			waiterPool.Put(pw)
		} else {
			c.mu.Unlock()
			<-pw.ch // teardown's nil delivery is guaranteed
			waiterPool.Put(pw)
		}
		return nil, fmt.Errorf("%w: write: %v", ErrConnLost, err)
	}
	return pw, nil
}

// Wait implements PendingCall. It may be called at most once: resolving
// returns the slot to the pool.
func (p *waiter) Wait(ctx context.Context) (wire.Message, error) {
	select {
	case msg := <-p.ch:
		waiterPool.Put(p)
		if msg == nil {
			return nil, ErrConnLost
		}
		return msg, nil
	case <-ctx.Done():
		c := p.c
		c.mu.Lock()
		if c.pending[p.id] == p {
			// Still registered: deregister, nobody will ever send.
			delete(c.pending, p.id)
			c.mu.Unlock()
			waiterPool.Put(p)
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// The read loop or teardown claimed the slot between the
		// deadline firing and the delete: its single send is in flight
		// on a buffered channel, so this receive cannot block.
		msg := <-p.ch
		waiterPool.Put(p)
		if msg == nil {
			return nil, ErrConnLost
		}
		return msg, nil // response beat the deadline; deliver it
	}
}

// Call implements Conn. The caller blocks for the reply anyway, so it
// writes its own frame when the socket is idle instead of waking the
// flusher to do it.
func (c *tcpConn) Call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	p, err := c.start(ctx, msg, true)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	c.mu.Lock()
	c.closed = true
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		c.teardown(nc)
	}
	return nil
}

// Listen implements Interface: it binds addr (":0" allocates a port)
// and services each accepted connection with one reader goroutine. Who
// runs the handler and who writes the response is chosen per request
// from what the reader can see:
//
//   - A data-path request (read, write, delete, multi-read, multi-write)
//     that is the last frame buffered on its connection is served on the
//     reader — handler and response write — because nothing else is
//     waiting for the reader and a hand-off to the pool and another to
//     the flusher would only add two scheduler wake-ups to the round
//     trip. Data-path handlers therefore must not wait on a later request
//     of the same connection.
//   - Everything else goes to the listener-wide bounded worker pool and
//     answers through the connection's flusher: a request with more
//     frames buffered behind it (the pool serves them in parallel and
//     their responses coalesce), and every control-plane request (its
//     handler may block for long, e.g. on RPCs of its own, and must never
//     occupy a reader).
//   - Pings are always answered on the reader (they never block, and a
//     failure-detector probe must not queue behind a flood of data
//     requests); when every pool worker is busy the reader serves
//     overflow requests too — bounded backpressure instead of a goroutine
//     per request.
//
// The first write error tears the connection down. A torn or hostile
// frame closes that connection (log-and-drop); well-behaved peers redial.
func (t *TCP) Listen(addr string, h Handler) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &tcpListener{
		ln:    ln,
		h:     h,
		tr:    t,
		conns: make(map[net.Conn]*srvConn),
		work:  make(chan srvReq, 4*workers()),
		done:  make(chan struct{}),
	}
	for i := 0; i < workers(); i++ {
		go l.worker()
	}
	go l.acceptLoop()
	return l, nil
}

type tcpListener struct {
	ln net.Listener
	h  Handler
	tr *TCP

	work chan srvReq
	done chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]*srvConn
	closed bool

	// Which goroutine ran the handler; read by tests and benchmarks.
	readerServed atomic.Uint64 // on the connection's reader
	poolServed   atomic.Uint64 // handed to the worker pool
}

// srvReq is one decoded request awaiting dispatch, with the frame buffer
// its message is a view of.
type srvReq struct {
	sc  *srvConn
	env wire.Envelope
	buf *[]byte
}

// srvConn is the server side of one accepted connection: the socket
// plus its coalescing writer.
type srvConn struct {
	nc     net.Conn
	w      *connWriter
	remote string
}

// Addr implements Listener.
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// Close implements Listener: stops accepting, retires the worker pool
// and severs every established connection, so in-flight peers observe
// the failure immediately (the loopback kill test depends on this).
func (l *tcpListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for nc := range l.conns {
		conns = append(conns, nc)
	}
	l.mu.Unlock()
	close(l.done)
	err := l.ln.Close()
	for _, nc := range conns {
		nc.Close()
	}
	return err
}

func (l *tcpListener) acceptLoop() {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			nc.Close()
			return
		}
		sc := &srvConn{nc: nc, remote: nc.RemoteAddr().String()}
		// The first write error closes the socket, which fails the read
		// loop and tears the whole connection down — a dead peer stops
		// consuming cycles instead of accumulating doomed responses.
		sc.w = newConnWriter(nc, l.tr.flushTimeout(), func() { nc.Close() })
		l.conns[nc] = sc
		l.mu.Unlock()
		go l.serveConn(sc)
	}
}

// worker drains the shared dispatch queue until the listener closes.
func (l *tcpListener) worker() {
	for {
		select {
		case req := <-l.work:
			l.serve(req, false)
		case <-l.done:
			return
		}
	}
}

// serve runs one request through the handler and enqueues the response
// on the connection's writer; inline lets this goroutine write it when
// the socket is idle. Enqueue errors mean the socket already failed and
// teardown is underway; the response is dropped like the request never
// arrived. The request is a view of req.buf, and the response may be too
// (an echo), so the buffer goes back to the pool only here, once enqueue
// has encoded the response; a response that views the handler's own state
// (a master's log) is encoded there too, before anything else sees it.
func (l *tcpListener) serve(req srvReq, inline bool) {
	if resp := l.h.ServeRPC(req.sc.remote, req.env.Msg); resp != nil {
		_ = req.sc.w.enqueue(req.env.RPCID, resp, inline)
	}
	putFrameBuf(req.buf)
}

func (l *tcpListener) serveConn(sc *srvConn) {
	defer func() {
		l.mu.Lock()
		delete(l.conns, sc.nc)
		l.mu.Unlock()
		sc.w.close()
		sc.nc.Close()
	}()
	br := bufio.NewReaderSize(sc.nc, 64<<10)
	for {
		env, buf, err := readFrame(br, true)
		if err != nil {
			return // torn/hostile frame or peer hangup: drop the connection
		}
		req := srvReq{sc: sc, env: env, buf: buf}
		// With nothing more buffered, nobody is waiting for this reader:
		// it can write a response itself instead of waking the flusher,
		// and run a data-path handler instead of waking a pool worker.
		last := br.Buffered() == 0
		onReader := false
		switch env.Msg.(type) {
		case *wire.PingReq:
			// Failure-detector probes never block and must not queue
			// behind a flood of data requests.
			onReader = true
		case *wire.ReadReq, *wire.WriteReq, *wire.DeleteReq, *wire.MultiReadReq, *wire.MultiWriteReq:
			onReader = last
		default:
			// Control plane: a handler may block for long (a coordinator
			// pushing assignments calls out to every owner), so it never
			// runs on the reader.
		}
		if onReader {
			l.readerServed.Add(1)
			l.serve(req, last)
			continue
		}
		select {
		case l.work <- req:
			l.poolServed.Add(1)
		default:
			// Pool saturated: serve on the reader goroutine. This bounds
			// concurrency at workers + connections and applies natural
			// backpressure to the flooding peer.
			l.readerServed.Add(1)
			l.serve(req, false)
		}
	}
}
