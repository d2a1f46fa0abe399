// Package simnet models the cluster fabric: an Infiniband-20G-class network
// with per-NIC transmit serialization and a fixed propagation delay. The
// paper uses RAMCloud's Infiniband transport exclusively; the network is
// deliberately fast enough never to be the primary bottleneck (the authors
// study network effects in a companion paper), but transfer times matter
// during crash recovery when whole segments cross the wire.
package simnet

import (
	"fmt"

	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
	"ramcloud/internal/wire"
)

// NodeID identifies an endpoint on the fabric.
type NodeID int

// Message is one datagram. Size is the on-wire size in bytes (computed from
// the wire encoding of the payload); Payload is delivered by reference to
// keep the simulator fast. RPCID and Resp are the RPC layer's correlation
// header, carried as plain fields so a send costs no wrapper allocation or
// `any` boxing on the fast path.
type Message struct {
	From    NodeID
	To      NodeID
	Size    int
	RPCID   uint64
	Resp    bool
	Payload wire.Message
}

// Handler receives delivered messages in engine (callback) context. It must
// not block; typically it pushes into a sim.Queue serviced by a dispatch
// proc.
type Handler func(msg Message)

// Config sets fabric characteristics.
type Config struct {
	PropagationDelay sim.Duration // one-way latency, switch included
	Bandwidth        float64      // per-NIC bytes/second
}

// DefaultConfig models Infiniband-20G (~2.3 GB/s usable, ~2.3 us one-way).
func DefaultConfig() Config {
	return Config{
		PropagationDelay: 2300 * sim.Nanosecond,
		Bandwidth:        2.3e9,
	}
}

// nic is everything the fabric knows about one node, so a message costs
// one map lookup per endpoint. A record is created by the first Attach or
// SetDown of its id and is never removed: the transmit history belongs to
// the machine, not the process.
type nic struct {
	handler Handler // nil while no process is attached
	down    bool

	// msgSeq counts messages sent by this node; it keys same-instant
	// delivery ordering (see deliverySeq).
	msgSeq uint64

	txBusyUntil sim.Time
	txBusy      metrics.Series // busy ns per second
}

// deliverySeq builds the sequence key for one delivery: deliveries that
// land at the same instant execute in (sender node, per-sender send
// order) order. Both components are properties of the simulated cluster,
// so the order of colliding deliveries does not depend on the order in
// which the engine happened to run their Sends. The sender id occupies
// bits 62..31 and the per-sender counter bits 30..0 (2^31 sends per node
// outlasts any simulated run by orders of magnitude).
func deliverySeq(from NodeID, counter uint64) uint64 {
	return sim.KeyedSeqBit | uint64(uint32(from))<<31 | (counter & 0x7FFFFFFF)
}

// Network is the shared fabric.
type Network struct {
	eng *sim.Engine
	cfg Config

	nics map[NodeID]*nic

	// free is the freelist of delivery records. Each record's closure is
	// created once and rescheduled forever after, so a steady-state send
	// allocates nothing.
	free *delivery

	delivered metrics.Counter
	dropped   metrics.Counter

	// fault holds injected fault rules (faults.go); nil until the first
	// rule is installed, so the healthy fast path pays one nil check.
	fault *faultState
}

// delivery is one in-flight message's arrival event. It carries both
// endpoints' records from Send, so arrival looks nothing up.
type delivery struct {
	n        *Network
	msg      Message
	src, dst *nic
	fn       func() // bound to run once at construction; reused across sends
	next     *delivery
}

// run delivers the message and returns the record to the freelist.
func (d *delivery) run() {
	n := d.n
	msg := d.msg
	src, dst := d.src, d.dst
	d.msg = Message{} // drop the payload reference before pooling
	d.src, d.dst = nil, nil
	d.next = n.free
	n.free = d
	if dst.down || src.down {
		n.dropped.Inc()
		return
	}
	n.delivered.Inc()
	dst.handler(msg) // read now, not at Send: the process may have restarted
}

// schedule queues msg's arrival at deliverAt on a record popped from the
// freelist (or a new one), keyed by the sender's next message number.
func (n *Network) schedule(msg Message, src, dst *nic, deliverAt sim.Time) {
	d := n.free
	if d == nil {
		d = &delivery{n: n}
		d.fn = d.run
	} else {
		n.free = d.next
		d.next = nil
	}
	d.msg, d.src, d.dst = msg, src, dst
	src.msgSeq++
	n.eng.ScheduleKeyedAt(deliverAt, deliverySeq(msg.From, src.msgSeq), d.fn)
}

// New returns an empty fabric.
func New(e *sim.Engine, cfg Config) *Network {
	if cfg.Bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Network{eng: e, cfg: cfg, nics: make(map[NodeID]*nic)}
}

// nic returns id's record, creating it on first mention.
func (n *Network) nic(id NodeID) *nic {
	nc := n.nics[id]
	if nc == nil {
		nc = &nic{}
		n.nics[id] = nc
	}
	return nc
}

// Attach registers a node and its message handler. Attaching the same
// node twice panics: handlers must not be silently replaced — a restarted
// process must Detach first. The NIC record is reused across restarts so
// the node's transmit accounting stays continuous.
func (n *Network) Attach(id NodeID, h Handler) {
	nc := n.nic(id)
	if nc.handler != nil {
		panic(fmt.Sprintf("simnet: node %d attached twice", id))
	}
	nc.handler = h
}

// SetDown marks a node unreachable (crashed). Messages to or from it are
// dropped silently, like a dead NIC.
func (n *Network) SetDown(id NodeID, down bool) { n.nic(id).down = down }

// IsDown reports whether a node is marked unreachable.
func (n *Network) IsDown(id NodeID) bool {
	nc := n.nics[id]
	return nc != nil && nc.down
}

// Send transmits a message. Transmission serializes on the sender's NIC;
// delivery happens one propagation delay after the last byte leaves, as
// a keyed event (deliverySeq) so deliveries colliding on one nanosecond
// run in sender order. It must be called from engine context.
func (n *Network) Send(msg Message) {
	src, dst := n.nics[msg.From], n.nics[msg.To]
	if src != nil && src.down || dst != nil && dst.down {
		n.dropped.Inc()
		return
	}
	if src == nil {
		panic(fmt.Sprintf("simnet: send from unattached node %d", msg.From))
	}
	if dst == nil || dst.handler == nil {
		panic(fmt.Sprintf("simnet: send to unattached node %d", msg.To))
	}
	now := n.eng.Now()
	start := src.txBusyUntil
	if start < now {
		start = now
	}
	txDur := sim.Duration(float64(msg.Size) / n.cfg.Bandwidth * float64(sim.Second))
	end := start.Add(txDur)
	src.txBusyUntil = end
	accountSpan(&src.txBusy, start, end)

	deliverAt := end.Add(n.cfg.PropagationDelay)
	if n.fault != nil {
		at, dup, ok := n.fault.apply(msg.From, msg.To, deliverAt)
		if !ok {
			return // lost in the fabric; the sender still paid tx time
		}
		deliverAt = at
		if dup {
			n.schedule(msg, src, dst, deliverAt)
		}
	}
	n.schedule(msg, src, dst, deliverAt)
}

func accountSpan(s *metrics.Series, from, to sim.Time) {
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		s.Add(int(second), float64(end-t))
		t = end
	}
}

// TxBusyFracSecond returns the fraction of second k node id spent
// transmitting.
func (n *Network) TxBusyFracSecond(id NodeID, k int) float64 {
	nc, ok := n.nics[id]
	if !ok {
		return 0
	}
	f := nc.txBusy.At(k) / float64(sim.Second)
	if f > 1 {
		return 1
	}
	return f
}

// Dropped returns the total number of dropped messages.
func (n *Network) Dropped() int64 { return n.dropped.Value() }
