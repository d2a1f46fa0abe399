package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// The traced run records a span at each boundary the harness can reach
// from outside the system: the driver's client API call (root span "op"),
// the client's RPC into the transport ("transport.call") and the
// transport's hand-off to the server's handler ("server.handle"). The
// whole cluster shares one process and one monotonic clock, so a child
// span always lies inside its parent and a layer's self time is its
// span minus what its children cover:
//
//	realnode.client  = op             − cover(transport.call)
//	transport.call   = cover(calls)   − cover(server.handle)
//	realnode.server  = cover(server.handle)
//
// Nothing inside realnode or transport is instrumented; no context
// crosses those APIs, so a child finds its parent afterwards by the first
// key it carries plus containment in time (link).

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch.
type span struct {
	start, end int64
	rec        int32  // record index of the first key carried
	lane       int32  // op: worker; transport.call, server.handle: listener index
	parent     int32  // index of the enclosing span one level up; -1 if none
	remote     string // server.handle: the peer's socket address
}

// spanLog is a preallocated span buffer many goroutines append to through
// an atomic cursor: recording a span allocates nothing and takes no lock.
// Spans beyond the capacity are counted, not stored.
type spanLog struct {
	next  atomic.Int64
	spans []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	i := l.next.Add(1) - 1
	if int(i) < len(l.spans) {
		l.spans[i] = s
	}
}

// recorded returns the stored spans and how many were dropped for space.
func (l *spanLog) recorded() ([]span, int) {
	n := int(l.next.Load())
	if n > len(l.spans) {
		return l.spans, n - len(l.spans)
	}
	return l.spans[:n], 0
}

// tracer owns one traced repetition's spans. ops has one preallocated
// slice per driver goroutine, indexed by the op's sequence number.
type tracer struct {
	epoch   time.Time
	armed   atomic.Bool // spans are recorded only while the window is open
	ops     [][]span
	calls   *spanLog
	handles *spanLog
}

func newTracer(opsPerLane []int, rpcs int) *tracer {
	t := &tracer{epoch: time.Now(), calls: newSpanLog(rpcs), handles: newSpanLog(rpcs)}
	t.ops = make([][]span, len(opsPerLane))
	for i, n := range opsPerLane {
		t.ops[i] = make([]span, 0, n)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// op records a root span for driver lane's next client API call. Only
// that lane's goroutine may call it.
func (t *tracer) op(lane int, rec int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.ops[lane] = append(t.ops[lane], span{
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		rec: rec, lane: int32(lane), parent: -1,
	})
}

// recOf recovers the record index from a YCSB key ("user%010d"); -1 for
// anything else.
func recOf(key []byte) int32 {
	if len(key) != 14 || string(key[:4]) != "user" {
		return -1
	}
	n := int32(0)
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int32(c-'0')
	}
	return n
}

// firstRec returns the record of the first key a data-plane request
// carries; -1 for control-plane messages, which are not traced.
func firstRec(msg wire.Message) int32 {
	switch m := msg.(type) {
	case *wire.ReadReq:
		return recOf(m.Key)
	case *wire.WriteReq:
		return recOf(m.Key)
	case *wire.MultiReadReq:
		if len(m.Items) > 0 {
			return recOf(m.Items[0].Key)
		}
	case *wire.MultiWriteReq:
		if len(m.Items) > 0 {
			return recOf(m.Items[0].Key)
		}
	default:
		// Control plane, pings, responses: no key, no span.
	}
	return -1
}

// tracedTransport decorates a transport.Interface with spans: Dial wraps
// Conn.Call and Starter.Start/PendingCall.Wait as "transport.call",
// Listen wraps Handler.ServeRPC as "server.handle".
type tracedTransport struct {
	inner transport.Interface
	t     *tracer

	mu        sync.Mutex
	listeners map[string]int32 // bound address -> listener index
}

func newTracedTransport(inner transport.Interface, t *tracer) *tracedTransport {
	return &tracedTransport{inner: inner, t: t, listeners: make(map[string]int32)}
}

func (tt *tracedTransport) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	tt.mu.Lock()
	idx := int32(len(tt.listeners))
	tt.mu.Unlock()
	ln, err := tt.inner.Listen(addr, transport.HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		rec := firstRec(msg)
		if rec < 0 || !tt.t.armed.Load() {
			return h.ServeRPC(remote, msg)
		}
		start := tt.t.now()
		resp := h.ServeRPC(remote, msg)
		tt.t.handles.add(span{start: start, end: tt.t.now(), rec: rec, lane: idx, parent: -1, remote: remote})
		return resp
	}))
	if err != nil {
		return nil, err
	}
	tt.mu.Lock()
	tt.listeners[ln.Addr()] = idx
	tt.mu.Unlock()
	return ln, nil
}

func (tt *tracedTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := tt.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tt.mu.Lock()
	idx, ok := tt.listeners[addr]
	tt.mu.Unlock()
	if !ok {
		idx = -1
	}
	tc := &tracedConn{Conn: conn, t: tt.t, lane: idx}
	if st, ok := conn.(transport.Starter); ok {
		return &tracedStarterConn{tracedConn: tc, st: st}, nil
	}
	return tc, nil
}

type tracedConn struct {
	transport.Conn
	t    *tracer
	lane int32
}

func (c *tracedConn) Call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	rec := firstRec(msg)
	if rec < 0 || !c.t.armed.Load() {
		return c.Conn.Call(ctx, msg)
	}
	start := c.t.now()
	resp, err := c.Conn.Call(ctx, msg)
	c.t.calls.add(span{start: start, end: c.t.now(), rec: rec, lane: c.lane, parent: -1})
	return resp, err
}

// tracedStarterConn is a tracedConn over a pipelining substrate: only
// then does it advertise transport.Starter, so the client's fall-back to
// a goroutine around Call is not masked.
type tracedStarterConn struct {
	*tracedConn
	st transport.Starter
}

func (c *tracedStarterConn) Start(ctx context.Context, msg wire.Message) (transport.PendingCall, error) {
	rec := firstRec(msg)
	if rec < 0 || !c.t.armed.Load() {
		return c.st.Start(ctx, msg)
	}
	start := c.t.now()
	pc, err := c.st.Start(ctx, msg)
	if err != nil {
		return nil, err
	}
	return &tracedPending{pc: pc, c: c.tracedConn, start: start, rec: rec}, nil
}

type tracedPending struct {
	pc    transport.PendingCall
	c     *tracedConn
	start int64
	rec   int32
}

func (p *tracedPending) Wait(ctx context.Context) (wire.Message, error) {
	resp, err := p.pc.Wait(ctx)
	p.c.t.calls.add(span{start: p.start, end: p.c.t.now(), rec: p.rec, lane: p.c.lane, parent: -1})
	return resp, err
}

// cover returns the total length of the union of the intervals, clipped
// to [lo, hi]. It sorts ivs in place.
func cover(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// link sets child.parent for every child to the index of the parent that
// carries the child's key and contains it in time, preferring the one
// that started last. keysOf lists the records a parent carries (one for
// a single-key op, the round's keys for a multi-op). It returns how many
// children found no parent.
func link(children, parents []span, sameLane bool, keysOf func(p int) []int32) (orphans int) {
	byRec := make(map[int32][]int32)
	for p := range parents {
		for _, r := range keysOf(p) {
			byRec[r] = append(byRec[r], int32(p))
		}
	}
	for _, ps := range byRec {
		sort.Slice(ps, func(i, j int) bool { return parents[ps[i]].start < parents[ps[j]].start })
	}
	for c := range children {
		ch := &children[c]
		ch.parent = -1
		ps := byRec[ch.rec]
		// First parent starting after the child; candidates lie before it.
		hi := sort.Search(len(ps), func(i int) bool { return parents[ps[i]].start > ch.start })
		for i := hi - 1; i >= 0; i-- {
			p := &parents[ps[i]]
			if p.end >= ch.end && (!sameLane || p.lane == ch.lane) {
				ch.parent = ps[i]
				break
			}
		}
		if ch.parent < 0 {
			orphans++
		}
	}
	return orphans
}

// selfTimes is the stage table one traced repetition reduces to. Times
// are means per client API call, in microseconds.
type selfTimes struct {
	calls     int // client API calls traced (root spans)
	opUs      float64
	clientUs  float64 // realnode.client self
	callUs    float64 // transport.call self
	handleUs  float64 // realnode.server (server.handle) self
	rpcs      int     // transport.call spans
	orphans   int     // spans that found no parent
	dropped   int     // spans lost to a full buffer
	sumErrPct float64 // |Σ self − mean op| / mean op
}

// analyze links the three span levels and reduces them to self times.
// ops is every lane's root spans concatenated; seqOf maps an index into
// it back to (lane, seq) and keysOf lists the records that root span
// carries.
func (t *tracer) analyze(ops []span, seqOf func(o int) (lane, seq int), keysOf func(lane, seq int) []int32) (selfTimes, []span, []span) {
	calls, droppedCalls := t.calls.recorded()
	handles, droppedHandles := t.handles.recorded()

	st := selfTimes{calls: len(ops), rpcs: len(calls), dropped: droppedCalls + droppedHandles}
	st.orphans += link(calls, ops, false, func(p int) []int32 { return keysOf(seqOf(p)) })
	st.orphans += link(handles, calls, true, func(p int) []int32 { return []int32{calls[p].rec} })

	callsOf := make([][]int32, len(ops))
	for c := range calls {
		if p := calls[c].parent; p >= 0 {
			callsOf[p] = append(callsOf[p], int32(c))
		}
	}
	handlesOf := make([][]int32, len(calls))
	for h := range handles {
		if p := handles[h].parent; p >= 0 {
			handlesOf[p] = append(handlesOf[p], int32(h))
		}
	}
	var opNs, clientNs, callNs, handleNs int64
	var civ, hiv [][2]int64
	for o := range ops {
		op := &ops[o]
		civ, hiv = civ[:0], hiv[:0]
		for _, c := range callsOf[o] {
			civ = append(civ, [2]int64{calls[c].start, calls[c].end})
			for _, h := range handlesOf[c] {
				hiv = append(hiv, [2]int64{handles[h].start, handles[h].end})
			}
		}
		inCalls := cover(civ, op.start, op.end)
		inHandles := cover(hiv, op.start, op.end)
		opNs += op.end - op.start
		clientNs += op.end - op.start - inCalls
		callNs += inCalls - inHandles
		handleNs += inHandles
	}
	if n := float64(len(ops)); n > 0 {
		st.opUs = float64(opNs) / n / 1e3
		st.clientUs = float64(clientNs) / n / 1e3
		st.callUs = float64(callNs) / n / 1e3
		st.handleUs = float64(handleNs) / n / 1e3
	}
	// The three self times telescope to the op mean only if every span
	// found its parent: an orphaned server.handle is time the table does
	// not explain. Charge orphans and drops at their own duration.
	var lost int64
	for _, c := range calls {
		if c.parent < 0 {
			lost += c.end - c.start
		}
	}
	for _, h := range handles {
		if h.parent < 0 {
			lost += h.end - h.start
		}
	}
	if opNs > 0 {
		st.sumErrPct = 100 * float64(lost) / float64(opNs)
	}
	return st, calls, handles
}

// traceFileOps caps how many root spans (with their descendants) the
// span file holds; the self times above always use every span.
const traceFileOps = 20_000

// writeTrace writes the first traceFileOps root spans and their
// descendants as one JSON document: name, start and end (ns since the
// window's epoch), parent span id, and the op id (worker, seq) every span
// of one client API call shares.
func writeTrace(path string, ops, calls, handles []span, seqOf func(o int) (lane, seq int)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	callsOf := make(map[int32][]int32)
	for c := range calls {
		if p := calls[c].parent; p >= 0 && int(p) < traceFileOps {
			callsOf[p] = append(callsOf[p], int32(c))
		}
	}
	handlesOf := make(map[int32][]int32)
	for h := range handles {
		if p := handles[h].parent; p >= 0 {
			if op := calls[p].parent; op >= 0 && int(op) < traceFileOps {
				handlesOf[p] = append(handlesOf[p], int32(h))
			}
		}
	}
	fmt.Fprint(w, `{"unit":"ns","spans":[`)
	id, first := 0, true
	emit := func(name string, s span, parent, lane, seq int, remote string) int {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":[%d,%d]",
			id, name, s.start, s.end, parent, lane, seq)
		if remote != "" {
			fmt.Fprintf(w, ",\"remote\":%q", remote)
		}
		fmt.Fprint(w, "}")
		id++
		return id - 1
	}
	for o := 0; o < len(ops) && o < traceFileOps; o++ {
		lane, seq := seqOf(o)
		oid := emit("op", ops[o], -1, lane, seq, "")
		for _, c := range callsOf[int32(o)] {
			cid := emit("transport.call", calls[c], oid, lane, seq, "")
			for _, h := range handlesOf[c] {
				emit("server.handle", handles[h], cid, lane, seq, handles[h].remote)
			}
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
