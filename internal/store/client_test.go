package store

import (
	"reflect"
	"testing"

	"ramcloud/internal/wire"
)

// TestJudge pins the verdict table for every status, on a read (or a
// delete) and on a write.
func TestJudge(t *testing.T) {
	for _, c := range []struct {
		st          wire.Status
		read, write Verdict
	}{
		{wire.StatusOK, Done, Done},
		{wire.StatusUnknownTable, Backoff, Backoff},
		{wire.StatusUnknownKey, NotFound, Backoff},
		{wire.StatusWrongServer, Reroute, Reroute},
		{wire.StatusRecovering, Backoff, Backoff},
		{wire.StatusRetry, Backoff, Backoff},
		{wire.StatusError, Backoff, Backoff},
	} {
		if got := Judge(c.st, false); got != c.read {
			t.Errorf("Judge(%v, read) = %d, want %d", c.st, got, c.read)
		}
		if got := Judge(c.st, true); got != c.write {
			t.Errorf("Judge(%v, write) = %d, want %d", c.st, got, c.write)
		}
	}
}

// TestGroup: owners in first-contact order, items in batch order within
// a group, uncovered keys set aside, a recovering tablet reported, and
// the caller's buffers used for the result.
func TestGroup(t *testing.T) {
	tablets := []wire.Tablet{
		{Table: 1, StartHash: 0, EndHash: 99, Master: 7},
		{Table: 1, StartHash: 100, EndHash: 199, Master: 3},
		{Table: 1, StartHash: 200, EndHash: 299, Master: 7},
		{Table: 2, StartHash: 0, EndHash: ^uint64(0), Master: 5, Recovering: true},
	}
	hashes := []uint64{150, 10, 250, 400, 120, 50}
	hash := func(i int) uint64 { return hashes[i] }
	var (
		ownerBuf [4]int32
		groupBuf [4][]int
	)
	owners, groups, unroutable, recovering := Group(tablets, 1, hash, []int{0, 1, 2, 3, 4, 5}, ownerBuf[:0], groupBuf[:0])
	if want := []int32{3, 7}; !reflect.DeepEqual(owners, want) {
		t.Errorf("owners %v, want %v", owners, want)
	}
	if want := [][]int{{0, 4}, {1, 2, 5}}; !reflect.DeepEqual(groups, want) {
		t.Errorf("groups %v, want %v", groups, want)
	}
	if want := []int{3}; !reflect.DeepEqual(unroutable, want) {
		t.Errorf("unroutable %v, want %v", unroutable, want)
	}
	if recovering {
		t.Error("no tablet of table 1 is recovering")
	}
	if &owners[0] != &ownerBuf[0] || &groups[0] != &groupBuf[0] {
		t.Error("the result was not built in the caller's buffers")
	}

	owners, _, _, recovering = Group(tablets, 2, hash, []int{1}, nil, nil)
	if !recovering || !reflect.DeepEqual(owners, []int32{5}) {
		t.Errorf("table 2: owners %v, recovering %v; want [5], true", owners, recovering)
	}
}

// TestRound: a Reroute asks for a refresh, a Backoff for a pause, a lost
// RPC for a refresh; all three keep their items, and a final verdict
// keeps nothing.
func TestRound(t *testing.T) {
	var r Round
	r.Judge(0, wire.StatusOK, false)
	r.Judge(1, wire.StatusUnknownKey, false)
	if r.Retry != nil || r.Refresh || r.Pause {
		t.Fatalf("final verdicts left %+v", r)
	}
	r.Judge(2, wire.StatusWrongServer, false)
	if !r.Refresh || r.Pause {
		t.Fatalf("after a Reroute: %+v", r)
	}
	r.Judge(3, wire.StatusUnknownKey, true)
	r.Lost([]int{4, 5})
	if want := (Round{Retry: []int{2, 3, 4, 5}, Refresh: true, Pause: true}); !reflect.DeepEqual(r, want) {
		t.Fatalf("round %+v, want %+v", r, want)
	}
	var lost Round
	lost.Lost([]int{9})
	if !lost.Refresh || lost.Pause {
		t.Fatalf("a lost RPC alone: %+v, want a refresh and no pause", lost)
	}
}
