// Package rpc layers request/response semantics over the simulated fabric.
// Every node (server, coordinator, client) owns one Endpoint. Outbound
// calls are matched to responses by RPC id through futures; inbound
// requests land in a queue that the node services, either from a proc
// parked in Pop or from engine callbacks woken by OnRequest.
//
// Response futures are reused, so a simulated RPC allocates none. A call
// takes its future from the endpoint's free list and registers it under
// its RPC id; the entry goes when the response arrives or WaitTimeout
// gives up, and a response that finds none is dropped. Call.Release puts
// the future back, deregistering a call that has not resolved, so a late
// or duplicated response never resolves the call that reuses it. Only the
// proc or callback that waited on a call releases it, once, after the
// wait: Call and CallTimeout do so themselves, as do the client's ops and
// multi-ops and the master's replication fan-out. A bare AsyncCall future
// is never released.
//
// Message sizes on the wire are computed from the real binary encoding
// (wire.Message.WireSize), so transfer timing matches what a physical
// network would see. Messages travel the whole path as wire.Message — no
// `any` boxing, no wrapper allocation per send.
//
// A sent message is immutable. The fabric hands the receiver the sender's
// pointer (twice under a duplication fault), so neither side may write to
// it after the send. This is what lets a master send one request to every
// backup of a fan-out, and the backups answer with shared status-only
// acks.
package rpc

import (
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// Request is an inbound RPC awaiting service.
type Request struct {
	From      simnet.NodeID
	RPCID     uint64
	Msg       wire.Message
	ArrivedAt sim.Time
}

// Endpoint is one node's RPC port.
type Endpoint struct {
	eng  *sim.Engine
	net  *simnet.Network
	node simnet.NodeID

	nextID  uint64
	pending map[uint64]*sim.Future[wire.Message]
	// free holds released futures, each unset and unregistered.
	free []*sim.Future[wire.Message]

	// Inbound holds requests awaiting service.
	Inbound *sim.Queue[Request]
	// onRequest, if set, runs after each push onto Inbound.
	onRequest func()

	sent uint64
}

// NewEndpoint attaches a node to the fabric and returns its endpoint.
func NewEndpoint(e *sim.Engine, net *simnet.Network, node simnet.NodeID) *Endpoint {
	ep := &Endpoint{
		eng:     e,
		net:     net,
		node:    node,
		pending: make(map[uint64]*sim.Future[wire.Message]),
		Inbound: sim.NewQueue[Request](e),
	}
	net.Attach(node, ep.deliver)
	return ep
}

// Node returns the endpoint's fabric address.
func (ep *Endpoint) Node() simnet.NodeID { return ep.node }

// Sent returns the number of requests issued.
func (ep *Endpoint) Sent() uint64 { return ep.sent }

func (ep *Endpoint) deliver(m simnet.Message) {
	if m.Resp {
		f, ok := ep.pending[m.RPCID]
		if !ok {
			return // late response after timeout: dropped
		}
		delete(ep.pending, m.RPCID)
		f.Set(m.Payload)
		return
	}
	ep.Inbound.Push(Request{From: m.From, RPCID: m.RPCID, Msg: m.Payload, ArrivedAt: ep.eng.Now()})
	if ep.onRequest != nil {
		ep.onRequest()
	}
}

// OnRequest installs fn to run after every request is pushed onto
// Inbound, inside the delivering event. A node that services its requests
// from engine callbacks rather than a proc drains Inbound there with
// TryPop.
func (ep *Endpoint) OnRequest(fn func()) { ep.onRequest = fn }

// send issues a request, registering a future for its response. The
// future comes from the free list; only an empty list allocates.
func (ep *Endpoint) send(to simnet.NodeID, msg wire.Message) (uint64, *sim.Future[wire.Message]) {
	ep.nextID++
	id := ep.nextID
	var f *sim.Future[wire.Message]
	if n := len(ep.free); n > 0 {
		f, ep.free = ep.free[n-1], ep.free[:n-1]
	} else {
		f = sim.NewFuture[wire.Message](ep.eng)
	}
	ep.pending[id] = f
	ep.sent++
	ep.net.Send(simnet.Message{From: ep.node, To: to, Size: msg.WireSize(), RPCID: id, Payload: msg})
	return id, f
}

// AsyncCall issues a request and returns a future for the response. The
// future is never released, so AsyncCall suits requests whose answer
// nobody waits for; a caller that waits uses StartCall.
func (ep *Endpoint) AsyncCall(to simnet.NodeID, msg wire.Message) *sim.Future[wire.Message] {
	_, f := ep.send(to, msg)
	return f
}

// Call is one in-flight request issued with StartCall. Unlike the bare future
// of AsyncCall it remembers its RPC id, so an abandoned call (timeout) can
// drop its pending entry and a late response is discarded instead of
// resolving a stale future, and its future can be released for reuse.
type Call struct {
	ep *Endpoint
	id uint64
	f  *sim.Future[wire.Message]
}

// StartCall issues a request without blocking and returns a handle the
// caller waits on later. This is the client-side async primitive: the send
// costs no simulated time beyond NIC serialization, and the completion
// wakes whichever proc is parked in Wait/WaitTimeout. The handle is a
// value so that callers can embed it (the client's op core keeps its
// in-flight attempt allocation-free this way).
func (ep *Endpoint) StartCall(to simnet.NodeID, msg wire.Message) Call {
	id, f := ep.send(to, msg)
	return Call{ep: ep, id: id, f: f}
}

// Done reports whether the response has arrived.
func (c *Call) Done() bool { return c.f.IsSet() }

// ResolvedAt returns the virtual time the response arrived, or zero while
// the call is still in flight. Lazy reapers (async clients) use it to
// record latency to the response's arrival rather than to the reap.
func (c *Call) ResolvedAt() sim.Time { return c.f.ResolvedAt() }

// Wait blocks until the response arrives. It never gives up; use
// WaitTimeout when the peer may be dead.
func (c *Call) Wait(p *sim.Proc) wire.Message { return c.f.Get(p) }

// WaitTimeout blocks up to d for the response. On timeout the pending
// entry is dropped so a late response is discarded, exactly like
// CallTimeout.
func (c *Call) WaitTimeout(p *sim.Proc, d sim.Duration) (wire.Message, bool) {
	resp, ok := c.f.GetTimeout(p, d)
	if !ok {
		delete(c.ep.pending, c.id)
	}
	return resp, ok
}

// Notify is WaitTimeout for a caller that is not a proc: fn runs once the
// response arrives, or once d elapses without one, and takes the outcome
// with Result. fn runs in the events a proc in WaitTimeout would be
// resumed from, drawn where it draws them (sim.Future.NotifyTimeout).
// Nothing may be waiting on the call, and it must not have resolved.
func (c *Call) Notify(d sim.Duration, fn func()) { c.f.NotifyTimeout(d, fn) }

// Result returns the response and true once it has arrived, and false
// before, as after Notify's deadline. Release then drops the pending
// entry of a call that timed out, so its late response is discarded.
func (c *Call) Result() (wire.Message, bool) { return c.f.TryGet() }

// Release hands the call's future back to its endpoint for reuse by a
// later call. A call that has not resolved is deregistered first, so its
// response, should one still come, is dropped. No proc may be waiting on
// the call, and neither it nor a copy of it may be used afterwards.
func (c *Call) Release() {
	if !c.f.IsSet() {
		delete(c.ep.pending, c.id)
	}
	c.f.Reset()
	c.ep.free = append(c.ep.free, c.f)
	c.f = nil
}

// Call issues a request and blocks until the response arrives. It never
// gives up; use CallTimeout when the peer may be dead.
func (ep *Endpoint) Call(p *sim.Proc, to simnet.NodeID, msg wire.Message) wire.Message {
	c := ep.StartCall(to, msg)
	resp := c.Wait(p)
	c.Release()
	return resp
}

// CallTimeout issues a request and waits up to d for the response. On
// timeout the pending entry is dropped so a late response is discarded.
func (ep *Endpoint) CallTimeout(p *sim.Proc, to simnet.NodeID, msg wire.Message, d sim.Duration) (wire.Message, bool) {
	c := ep.StartCall(to, msg)
	resp, ok := c.WaitTimeout(p, d)
	c.Release()
	return resp, ok
}

// Reply sends a response for an inbound request.
func (ep *Endpoint) Reply(req Request, msg wire.Message) {
	ep.net.Send(simnet.Message{From: ep.node, To: req.From, Size: msg.WireSize(), RPCID: req.RPCID, Resp: true, Payload: msg})
}
