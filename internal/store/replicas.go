package store

import (
	"math/rand"
	"slices"

	"ramcloud/internal/wire"
)

// Replicas is a master's replication state and the rules it keeps it by:
// each segment's backup set and the backups seen to die. It answers which
// backups a new segment gets (Open), whom a fan-out goes to (Set), what a
// backup's timeout asks for (Fail, then Join) and what the recovery will
// is (Will); the master sends, waits and charges time around it. Servers
// are named by cluster id, and the state grows with segments, not objects.
type Replicas struct {
	// Peers may hold replicas, and are taken in this order; self is never.
	Peers []int32

	self  int32
	fixed bool
	net   interface{ Up(id int32) bool }
	sets  map[uint64][]int32
	dead  map[int32]bool
}

// NewReplicas returns master self's replication state. fixed replaces the
// random scatter with ring order (an ablation mode). net.Up reports whether
// a peer is reachable now; one that is not is passed over, not marked dead.
func NewReplicas(self int32, fixed bool, net interface{ Up(id int32) bool }) Replicas {
	return Replicas{self: self, fixed: fixed, net: net, sets: make(map[uint64][]int32), dead: make(map[int32]bool)}
}

func (r *Replicas) eligible(id int32) bool { return id != r.self && !r.dead[id] && r.net.Up(id) }

// Open returns the segment's backup set, choosing it when it has none
// (opened: the caller opens a replica on each): rf eligible peers, or all
// if fewer. RAMCloud scatters segments so recovery spreads over the
// cluster: one shuffle drawn from rng, the caller's generator. With fixed,
// ring order from the first id after self, and rng is not drawn.
func (r *Replicas) Open(segment uint64, rf int, rng *rand.Rand) (set []int32, opened bool) {
	if set, ok := r.sets[segment]; ok {
		return set, false
	}
	cands := make([]int32, 0, len(r.Peers))
	for _, id := range r.Peers {
		if r.eligible(id) {
			cands = append(cands, id)
		}
	}
	if r.fixed {
		for i, c := range cands {
			if c > r.self {
				cands = append(cands[i:], cands[:i]...)
				break
			}
		}
	} else {
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	}
	cands = cands[:min(rf, len(cands))]
	r.sets[segment] = cands
	return cands, true
}

// Set returns the segment's backup set itself, so a fan-out allocates
// nothing; the caller must not write to it.
func (r *Replicas) Set(segment uint64) []int32 { return r.sets[segment] }

// Fail marks backup failed dead, until Rejoin, and drops it from the
// segment's set. Only an open segment asks for more (a sealed one keeps
// its survivors; re-replicating it is out of scope): sub, the first
// eligible peer outside the set, which the caller opens, resends the
// segment to and reports to Join. With none left the segment runs degraded.
func (r *Replicas) Fail(segment uint64, failed int32, open bool) (sub int32, ok bool) {
	r.dead[failed] = true
	// ROADMAP 3(c): the set is filtered in place and Join appends to the
	// same array, so a caller still ranging over it (the replay chain)
	// skips the backup after the failed one and reaches the substitute.
	set := r.sets[segment][:0]
	for _, b := range r.sets[segment] {
		if b != failed {
			set = append(set, b)
		}
	}
	r.sets[segment] = set
	if open {
		for _, id := range r.Peers {
			if r.eligible(id) && !slices.Contains(set, id) {
				return id, true
			}
		}
	}
	return 0, false
}

// Join adds Fail's substitute to the segment's set once it acked both the
// open and the resend.
func (r *Replicas) Join(segment uint64, sub int32, acked bool) {
	// ROADMAP 3(b): one that timed out may still hold the segment, yet it
	// is neither added nor marked dead, so it is never closed or freed.
	if acked {
		r.sets[segment] = append(r.sets[segment], sub)
	}
}

// Rejoin clears a restarted peer's dead mark.
func (r *Replicas) Rejoin(id int32) { delete(r.dead, id) }

// Dead reports whether id is marked dead.
func (r *Replicas) Dead(id int32) bool { return r.dead[id] }

// Will cuts tablets into the recovery will: live/partitionBytes + 1
// partitions, but at least one per peer other than self (RAMCloud
// scatters recovery "to have as many machines performing the
// crash-recovery as possible", paper Sec. II-B) and at most 64.
func (r *Replicas) Will(tablets []wire.Tablet, live, partitionBytes int64) []wire.WillPartition {
	return splitRanges(tablets, min(max(int(live/partitionBytes)+1, len(r.Peers)-1), 64))
}
