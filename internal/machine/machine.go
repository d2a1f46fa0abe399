// Package machine models the physical nodes of the testbed: a fixed number
// of cores with per-second busy-time accounting, mirroring the Grid'5000
// Nancy nodes used in the paper (1x Intel Xeon X3440, 4 cores, 16 GB RAM,
// 298 GB HDD, Infiniband-20G).
//
// CPU time is accounted two ways:
//
//   - Pinned cores: RAMCloud's dispatch thread busy-polls the NIC and
//     permanently occupies one core ("RAMCloud hogs one core per machine for
//     its polling mechanism"). Pinned occupancy is integrated lazily as a
//     step function.
//   - Busy spans: workers, cleaners and replay threads add explicit
//     [from, to) busy intervals, including their spin-before-sleep windows.
//
// The per-second utilization series reproduces the paper's Table I and
// Fig. 9a measurements.
package machine

import (
	"fmt"

	"ramcloud/internal/sim"
)

// Spec describes node hardware.
type Spec struct {
	Name      string
	Cores     int
	DRAMBytes int64
	DiskBytes int64
}

// Grid5000Nancy returns the node type used throughout the paper.
func Grid5000Nancy() Spec {
	return Spec{
		Name:      "grid5000-nancy-x3440",
		Cores:     4,
		DRAMBytes: 16 << 30,
		DiskBytes: 298 << 30,
	}
}

// Node is one simulated machine.
type Node struct {
	ID   int
	Spec Spec

	eng *sim.Engine

	busyNS []int64 // busy core-nanoseconds per simulated second

	pinned      int      // currently pinned cores (step function)
	pinnedSince sim.Time // start of the current pinned level

	alive bool
}

// NewNode returns an alive node with no load.
func NewNode(e *sim.Engine, id int, spec Spec) *Node {
	if spec.Cores <= 0 {
		panic("machine: node must have at least one core")
	}
	return &Node{ID: id, Spec: spec, eng: e, alive: true}
}

// Alive reports whether the node is powered and serving.
func (n *Node) Alive() bool { return n.alive }

// Kill marks the node dead (process crash). Accounting stops: pinned cores
// are flushed and released.
func (n *Node) Kill() {
	n.flushPinned(n.eng.Now())
	n.pinned = 0
	n.alive = false
}

// Revive powers a killed node back on (process restart on the same
// hardware). Accounting resumes from now with no pinned cores; the restarted
// process pins its own.
func (n *Node) Revive() {
	if n.alive {
		return
	}
	n.alive = true
	n.pinned = 0
	n.pinnedSince = n.eng.Now()
}

// String identifies the node in logs.
func (n *Node) String() string { return fmt.Sprintf("node-%d", n.ID) }

func (n *Node) bucketAdd(from, to sim.Time, sign int64) {
	if to <= from {
		return
	}
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		idx := int(second)
		for len(n.busyNS) <= idx {
			n.busyNS = append(n.busyNS, 0)
		}
		n.busyNS[idx] += sign * int64(end-t)
		t = end
	}
}

// AddBusy records one core busy over [from, to). Spans may lie (slightly) in
// the future for optimistic spin accounting.
func (n *Node) AddBusy(from, to sim.Time) { n.bucketAdd(from, to, 1) }

// SubBusy removes previously added busy time (spin over-accounting
// correction).
func (n *Node) SubBusy(from, to sim.Time) { n.bucketAdd(from, to, -1) }

// PinCores changes the number of permanently busy cores by delta (e.g. +1
// when a dispatch thread starts).
func (n *Node) PinCores(delta int) {
	now := n.eng.Now()
	n.flushPinned(now)
	n.pinned += delta
	if n.pinned < 0 {
		panic("machine: negative pinned core count")
	}
	if n.pinned > n.Spec.Cores {
		panic("machine: pinned more cores than the node has")
	}
}

// PinnedCores returns the current pinned-core level.
func (n *Node) PinnedCores() int { return n.pinned }

func (n *Node) flushPinned(now sim.Time) {
	if n.pinned > 0 && now > n.pinnedSince {
		for i := 0; i < n.pinned; i++ {
			n.bucketAdd(n.pinnedSince, now, 1)
		}
	}
	n.pinnedSince = now
}

// FlushAccounting integrates pinned-core time up to now. Samplers call this
// at each tick before reading utilization.
func (n *Node) FlushAccounting(now sim.Time) { n.flushPinned(now) }

// UtilSecond returns the CPU utilization (0..1) during second k. Call
// FlushAccounting first when sampling the just-finished second.
func (n *Node) UtilSecond(k int) float64 {
	if k < 0 || k >= len(n.busyNS) {
		return 0
	}
	u := float64(n.busyNS[k]) / (float64(n.Spec.Cores) * float64(sim.Second))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// MeanUtil returns the average utilization over seconds [from, to).
func (n *Node) MeanUtil(from, to int) float64 {
	if to <= from {
		return 0
	}
	sum := 0.0
	for k := from; k < to; k++ {
		sum += n.UtilSecond(k)
	}
	return sum / float64(to-from)
}
