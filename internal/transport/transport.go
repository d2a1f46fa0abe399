// Package transport is the real cluster's RPC substrate: a dial/listen
// interface carrying wire.Message values, and its one backend, TCP
// (tcp.go): real sockets, goroutines and context deadlines. Frames are the
// self-framing wire.Envelope encoding (frame.go), responses are correlated
// to requests by RPC id so they may return out of order, connections are
// reused across calls and redialed with capped backoff after a failure.
// The interface is what lets a test or the benchmark put an in-memory
// substrate under the same client and master. The simulator does not run
// through it: its procs call internal/rpc directly.
//
// The backend legitimately uses bare goroutines, wall-clock time and OS
// scheduling; rcvet's determinism analyzers exempt this package by scope
// (internal/analysis/scope), not by per-line suppression.
package transport

import (
	"context"
	"errors"

	"ramcloud/internal/wire"
)

// Transport errors.
var (
	// ErrClosed reports a call on a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrConnLost reports an in-flight call whose connection died
	// before the response arrived. The caller cannot know whether the
	// request executed; retry only idempotent operations.
	ErrConnLost = errors.New("transport: connection lost")
)

// Handler services one inbound request. remote identifies the peer (a
// host:port for TCP). A nil response drops the request without replying —
// the peer sees a timeout, exactly like a lost datagram. The TCP backend
// may run a data-path request (read, write, delete, multi-read,
// multi-write) on its connection's reader, so serving one must not wait
// for a later request of the same connection; every other request runs on
// a pool worker and may block (see TCP.Listen).
//
// A handler keeps nothing it was handed. On the TCP backend msg is a view
// of the frame it arrived in: the message and every byte slice in it are
// valid only until ServeRPC returns, after which the frame's buffer is
// reused for another request. What must outlive the call is copied by the
// handler (the master copies a written value once, into its log).
//
// The response is the transport's to encode, not to keep. It may alias
// the request, and it may alias state the handler never rewrites (a
// master's read answers with a view of its log). The TCP listener
// encodes it into the connection's write buffer as soon as ServeRPC
// returns, so nothing else ever sees the view; a transport that hands a
// response over by reference must copy the byte fields it hands over.
type Handler interface {
	ServeRPC(remote string, msg wire.Message) wire.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(remote string, msg wire.Message) wire.Message

// ServeRPC calls f.
func (f HandlerFunc) ServeRPC(remote string, msg wire.Message) wire.Message {
	return f(remote, msg)
}

// Conn is a client connection to one peer. Calls are safe for
// concurrent use and may complete out of order; each call's deadline
// comes from its context.
type Conn interface {
	// Call sends msg and blocks until its correlated response arrives,
	// the context expires, or the connection fails.
	Call(ctx context.Context, msg wire.Message) (wire.Message, error)
	// Close tears the connection down; in-flight calls fail.
	Close() error
}

// PendingCall is one pipelined in-flight request: the send has been
// queued, the response has not necessarily arrived.
type PendingCall interface {
	// Wait blocks until the correlated response arrives, the context
	// expires, or the connection fails. It must be called exactly once.
	Wait(ctx context.Context) (wire.Message, error)
}

// Starter is implemented by connections that support pipelining: many
// requests in flight on one connection without a goroutine per call.
// The TCP backend implements it, and realnode's client requires it of
// every connection to a master.
type Starter interface {
	// Start queues msg and returns without waiting for the response. On
	// TCP the caller writes the frame itself only when the connection has
	// no other call in flight (nothing to coalesce behind); otherwise the
	// write is left to the flusher, so a window kept full still coalesces.
	Start(ctx context.Context, msg wire.Message) (PendingCall, error)
}

// Listener is a bound service endpoint.
type Listener interface {
	// Addr returns the bound address in the transport's dial format.
	Addr() string
	// Close stops accepting and severs established connections.
	Close() error
}

// Interface is the substrate: dial peers, host services.
type Interface interface {
	Dial(addr string) (Conn, error)
	Listen(addr string, h Handler) (Listener, error)
}
