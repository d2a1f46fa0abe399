package simnet

import (
	"math/rand"

	"ramcloud/internal/sim"
)

// This file adds deterministic fault injection to the fabric: per-link and
// per-node loss/jitter/duplication models, and symmetric partitions between
// node sets. All stochastic draws come from a dedicated fault RNG — never
// the engine RNG, which the servers consume for backup scatter — and no
// draw happens unless a fault rule has been installed, so a fault-free run
// is bit-for-bit identical to one on a build without this file.
//
// Fault rules are ordinary engine-time state: install or clear them from a
// scheduled callback to open and close loss windows, partitions and
// slow-node episodes at exact virtual times.

// FaultModel describes the stochastic impairments applied to messages on a
// link. The zero value is a healthy link.
type FaultModel struct {
	Loss   float64      // probability a message is dropped in the fabric
	Dup    float64      // probability a second copy is delivered
	Jitter sim.Duration // extra delivery delay, uniform in [0, Jitter)
}

// active reports whether the model impairs anything.
func (f FaultModel) active() bool { return f.Loss > 0 || f.Dup > 0 || f.Jitter > 0 }

type linkKey struct{ from, to NodeID }

// faultState holds the fabric's installed fault rules. It lives behind a
// nil pointer until the first rule is installed, keeping the fault-free
// send path free of map lookups.
type faultState struct {
	rng *rand.Rand

	def   FaultModel
	nodes map[NodeID]FaultModel
	links map[linkKey]FaultModel

	// partSide labels the isolated side of the active partition; when
	// partActive, messages between a labeled and an unlabeled node (or
	// between differently-labeled nodes) are dropped.
	partSide   map[NodeID]bool
	partActive bool

	droppedFault int64
	duplicated   int64
}

// faults returns the fault state, creating it on first use. The RNG is
// seeded deterministically; SeedFaults re-seeds it per scenario.
func (n *Network) faults() *faultState {
	if n.fault == nil {
		n.fault = &faultState{
			rng:      rand.New(rand.NewSource(1)),
			nodes:    make(map[NodeID]FaultModel),
			links:    make(map[linkKey]FaultModel),
			partSide: make(map[NodeID]bool),
		}
	}
	return n.fault
}

// SeedFaults re-seeds the fault RNG. Scenarios call it with their seed so a
// fault schedule is a pure function of (scenario, seed) regardless of what
// else the process has run.
func (n *Network) SeedFaults(seed int64) {
	n.faults().rng = rand.New(rand.NewSource(seed))
}

// SetDefaultFaults installs a fault model on every link without a more
// specific rule.
func (n *Network) SetDefaultFaults(f FaultModel) { n.faults().def = f }

// SetNodeFaults installs a fault model on every message to or from id.
// A zero model clears the rule.
func (n *Network) SetNodeFaults(id NodeID, f FaultModel) {
	fs := n.faults()
	if f.active() {
		fs.nodes[id] = f
	} else {
		delete(fs.nodes, id)
	}
}

// SetLinkFaults installs a fault model on the directed link from -> to,
// overriding node and default rules. A zero model clears the override.
func (n *Network) SetLinkFaults(from, to NodeID, f FaultModel) {
	fs := n.faults()
	k := linkKey{from, to}
	if f.active() {
		fs.links[k] = f
	} else {
		delete(fs.links, k)
	}
}

// Partition isolates the given nodes from the rest of the fabric: messages
// between a listed and an unlisted node are dropped in both directions;
// traffic within either side still flows. A new call replaces the previous
// partition.
func (n *Network) Partition(side []NodeID) {
	fs := n.faults()
	fs.partSide = make(map[NodeID]bool, len(side))
	for _, id := range side {
		fs.partSide[id] = true
	}
	fs.partActive = len(side) > 0
}

// Heal removes the active partition.
func (n *Network) Heal() {
	if n.fault != nil {
		n.fault.partActive = false
	}
}

// DroppedByFault returns the number of messages dropped by injected faults
// (loss models and partitions), not counting dead-node drops.
func (n *Network) DroppedByFault() int64 {
	if n.fault == nil {
		return 0
	}
	return n.fault.droppedFault
}

// Duplicated returns the number of extra message copies delivered by
// duplication models.
func (n *Network) Duplicated() int64 {
	if n.fault == nil {
		return 0
	}
	return n.fault.duplicated
}

// Detach removes a node's handler so a restarted process can Attach at the
// same address. The NIC record survives: its transmit history belongs to
// the machine, not the process.
func (n *Network) Detach(id NodeID) {
	if nc := n.nics[id]; nc != nil {
		nc.handler = nil
	}
}

// model resolves the fault model for one message: link override first, then
// the destination node's rule, then the source node's, then the default.
func (fs *faultState) model(from, to NodeID) FaultModel {
	if f, ok := fs.links[linkKey{from, to}]; ok {
		return f
	}
	if f, ok := fs.nodes[to]; ok {
		return f
	}
	if f, ok := fs.nodes[from]; ok {
		return f
	}
	return fs.def
}

// apply decides one message's fate: dropped (false), or delivered at the
// (possibly jittered) time with dup reporting whether a second copy must be
// delivered too. Draw order is fixed — loss, jitter, duplication — so the
// RNG stream is a pure function of the message sequence.
func (fs *faultState) apply(from, to NodeID, at sim.Time) (deliverAt sim.Time, dup bool, ok bool) {
	if fs.partActive && fs.partSide[from] != fs.partSide[to] {
		fs.droppedFault++
		return 0, false, false
	}
	f := fs.model(from, to)
	if !f.active() {
		return at, false, true
	}
	if f.Loss > 0 && fs.rng.Float64() < f.Loss {
		fs.droppedFault++
		return 0, false, false
	}
	if f.Jitter > 0 {
		at = at.Add(sim.Duration(fs.rng.Int63n(int64(f.Jitter))))
	}
	if f.Dup > 0 && fs.rng.Float64() < f.Dup {
		fs.duplicated++
		dup = true
	}
	return at, dup, true
}
