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
// a group, uncovered keys set aside, a recovering tablet reported, the
// caller's buffers used for the result, and one allocation per call.
func TestGroup(t *testing.T) {
	tablets := []wire.Tablet{
		{Table: 1, StartHash: 0, EndHash: 99, Master: 7},
		{Table: 1, StartHash: 100, EndHash: 199, Master: 3},
		{Table: 1, StartHash: 200, EndHash: 299, Master: 7},
		{Table: 1, StartHash: 300, EndHash: 399, Master: 9},
		{Table: 2, StartHash: 0, EndHash: ^uint64(0), Master: 5, Recovering: true},
	}
	hashes := []uint64{150, 10, 250, 400, 120, 50, 350, 999}
	hash := func(i int) uint64 { return hashes[i] }
	for _, c := range []struct {
		name       string
		table      uint64
		pending    []int
		owners     []int32
		groups     [][]int
		unroutable []int
		recovering bool
	}{
		{"first contact, batch order", 1, []int{0, 1, 2, 4, 5, 6}, []int32{3, 7, 9}, [][]int{{0, 4}, {1, 2, 5}, {6}}, nil, false},
		{"a retry's subset", 1, []int{2, 6, 0}, []int32{7, 9, 3}, [][]int{{2}, {6}, {0}}, nil, false},
		{"uncovered keys", 1, []int{3, 1, 7}, []int32{7}, [][]int{{1}}, []int{3, 7}, false},
		{"all uncovered", 1, []int{3, 7}, []int32{}, [][]int{}, []int{3, 7}, false},
		{"recovering", 2, []int{1, 3}, []int32{5}, [][]int{{1, 3}}, nil, true},
		{"empty", 1, nil, []int32{}, [][]int{}, nil, false},
	} {
		var (
			ownerBuf [4]int32
			groupBuf [4][]int
		)
		owners, groups, unroutable, recovering := Group(tablets, c.table, hash, c.pending, ownerBuf[:0], groupBuf[:0])
		if !reflect.DeepEqual(owners, c.owners) || !reflect.DeepEqual(groups, c.groups) {
			t.Errorf("%s: owners %v groups %v, want %v %v", c.name, owners, groups, c.owners, c.groups)
		}
		if !reflect.DeepEqual(unroutable, c.unroutable) || recovering != c.recovering {
			t.Errorf("%s: unroutable %v recovering %v, want %v %v", c.name, unroutable, recovering, c.unroutable, c.recovering)
		}
		if len(owners) > 0 && (&owners[0] != &ownerBuf[0] || &groups[0] != &groupBuf[0]) {
			t.Errorf("%s: the result was not built in the caller's buffers", c.name)
		}
		for g := range groups {
			if cap(groups[g]) != len(groups[g]) {
				t.Errorf("%s: group %d has cap %d for %d items; an append could reach the next group", c.name, g, cap(groups[g]), len(groups[g]))
			}
		}
	}

	// Batches on both sides of the stack bookkeeping split as appending
	// each item to its owner's group would.
	for _, n := range []int{64, 65, 300} {
		pending := make([]int, n)
		for k := range pending {
			hashes = append(hashes, uint64(k*37%450))
			pending[k] = len(hashes) - 1
		}
		var want [][]int
		var wantOwners []int32
		var wantUnroutable []int
		for _, i := range pending {
			tab := Find(tablets, 1, hashes[i])
			if tab == nil {
				wantUnroutable = append(wantUnroutable, i)
				continue
			}
			g := 0
			for g < len(wantOwners) && wantOwners[g] != tab.Master {
				g++
			}
			if g == len(wantOwners) {
				wantOwners = append(wantOwners, tab.Master)
				want = append(want, nil)
			}
			want[g] = append(want[g], i)
		}
		owners, groups, unroutable, _ := Group(tablets, 1, hash, pending, nil, nil)
		if !reflect.DeepEqual(owners, wantOwners) || !reflect.DeepEqual(groups, want) || !reflect.DeepEqual(unroutable, wantUnroutable) {
			t.Errorf("%d items: owners %v, groups %v, unroutable %v; want %v, %v, %v", n, owners, groups, unroutable, wantOwners, want, wantUnroutable)
		}
	}

	// 32 items over the three masters of table 1, one round of a batched
	// client: the routable items' slice is the only allocation.
	pending := make([]int, 32)
	for k := range pending {
		hashes = append(hashes, uint64(k*97%400))
		pending[k] = len(hashes) - 1
	}
	if got := testing.AllocsPerRun(100, func() {
		var (
			ownerBuf [8]int32
			groupBuf [8][]int
		)
		if owners, _, _, _ := Group(tablets, 1, hash, pending, ownerBuf[:0], groupBuf[:0]); len(owners) != 3 {
			t.Fatalf("%d owners, want 3", len(owners))
		}
	}); got > 1 {
		t.Errorf("Group of 32 items over 3 owners allocates %v objects, want at most 1", got)
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
