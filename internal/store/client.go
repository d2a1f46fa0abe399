package store

import "ramcloud/internal/wire"

// This file is the client's half of the rules: what a data-plane status
// asks the caller to do next, and how a batch is split by owner. Both
// clients (the simulated internal/client and the real internal/realnode)
// decide through it and differ only in how they wait: sim.Proc sleeps
// there, wall-clock pauses and deadlines here.

// Verdict is what one status asks of the operation that received it.
type Verdict uint8

const (
	// Done: the operation succeeded.
	Done Verdict = iota + 1
	// NotFound: a read or delete of a key with no live object; final.
	NotFound
	// Reroute: the tablet moved. Refresh the map and retry at once; this
	// is progress, so it does not grow the backoff.
	Reroute
	// Backoff: the master cannot serve it now (busy, recovering, an
	// error, or a write answered UnknownKey, which it never legitimately
	// is). Pause, then retry.
	Backoff
)

// Judge maps a response status to a verdict. write is true for a write:
// UnknownKey ends a read or a delete, but a write retries it.
func Judge(st wire.Status, write bool) Verdict {
	switch st {
	case wire.StatusOK:
		return Done
	case wire.StatusUnknownKey:
		if write {
			return Backoff
		}
		return NotFound
	case wire.StatusWrongServer:
		return Reroute
	default:
		return Backoff
	}
}

// Group sorts the pending items of a batch on table by the master that
// owns them, for one round of one RPC per owner. hash(i) is item i's key
// hash. Owners come in the order the batch first reaches them (a slice
// scan, no map), so the RPCs go out in the same order on every call;
// groups[g] lists, in batch order, the items owners[g] serves. The
// results are appended to ownerBuf and groupBuf, which a caller may keep
// on its stack. unroutable lists the items no tablet covers; recovering
// reports whether any item's tablet is being recovered.
//
// It routes each item once, noting its group and counting each group,
// then carves every group out of one slice of the routable items: one
// allocation per call, and none for the bookkeeping of a batch of up to
// groupStack items.
func Group(tablets []wire.Tablet, table uint64, hash func(i int) uint64, pending []int, ownerBuf []int32, groupBuf [][]int) (owners []int32, groups [][]int, unroutable []int, recovering bool) {
	owners = ownerBuf
	var stack [2 * groupStack]int32
	scratch := stack[:]
	if len(pending) > groupStack {
		scratch = make([]int32, 2*len(pending))
	}
	// of[k] is pending[k]'s group, or -1 if no tablet covers it. slot[g]
	// first counts group g, then is where its next item goes in all, and
	// at the end is where it ends.
	of, slot := scratch[:len(pending)], scratch[len(pending):2*len(pending)]
	for k, i := range pending {
		t := Find(tablets, table, hash(i))
		if t == nil {
			unroutable = append(unroutable, i)
			of[k] = -1
			continue
		}
		recovering = recovering || t.Recovering
		g := 0
		for g < len(owners) && owners[g] != t.Master {
			g++
		}
		if g == len(owners) {
			owners = append(owners, t.Master)
		}
		of[k] = int32(g)
		slot[g]++
	}
	all := make([]int, len(pending)-len(unroutable))
	at := int32(0)
	for g := range owners {
		at, slot[g] = at+slot[g], at
	}
	for k, i := range pending {
		if g := of[k]; g >= 0 {
			all[slot[g]] = i
			slot[g]++
		}
	}
	at, groups = 0, groupBuf
	for g := range owners {
		groups = append(groups, all[at:slot[g]:slot[g]])
		at = slot[g]
	}
	return owners, groups, unroutable, recovering
}

// groupStack is the largest batch Group sorts without allocating its
// bookkeeping.
const groupStack = 64

// Round gathers the verdicts of one multi-op round: the items to try
// again, and what the next round must do first.
type Round struct {
	Retry   []int // items to send again
	Refresh bool  // a Reroute or a lost RPC: refresh the tablet map
	Pause   bool  // a Backoff: pause before the next round
}

// Judge files item i's status and returns its verdict; a Reroute or a
// Backoff keeps the item for the next round.
func (r *Round) Judge(i int, st wire.Status, write bool) Verdict {
	v := Judge(st, write)
	switch v {
	case Reroute:
		r.Retry = append(r.Retry, i)
		r.Refresh = true
	case Backoff:
		r.Retry = append(r.Retry, i)
		r.Pause = true
	}
	return v
}

// Lost files items whose RPC got no answer (a timeout, a lost
// connection): the owner may be gone, so they retry on a refreshed map.
func (r *Round) Lost(items []int) {
	r.Retry = append(r.Retry, items...)
	r.Refresh = true
}
