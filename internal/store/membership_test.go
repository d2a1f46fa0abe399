package store

import (
	"reflect"
	"testing"

	"ramcloud/internal/wire"
)

// Quarters of the hash space, as a span-4 table cuts it.
const (
	q1 = uint64(1) << 62
	q2 = uint64(1) << 63
	q3 = q1 + q2
)

// tab is a tablet of table that master owns.
func tab(table, start, end uint64, master int32) wire.Tablet {
	return wire.Tablet{Table: table, StartHash: start, EndHash: end, Master: master}
}

// recovering is tab marked recovering.
func recovering(table, start, end uint64, master int32) wire.Tablet {
	t := tab(table, start, end, master)
	t.Recovering = true
	return t
}

// enlisted returns a membership of the given servers, a death after 3
// missed pings.
func enlisted(ids ...int32) *Membership {
	m := NewMembership(3)
	for _, id := range ids {
		m.Enlist(id)
	}
	return m
}

// partitions lists rec's partitions as (range, recovery master, done, ok).
func partitions(rec *Recovery) [][4]any {
	var out [][4]any
	for _, p := range rec.Partitions {
		out = append(out, [4]any{p.Range, p.Master, p.Done, p.OK})
	}
	return out
}

// TestMembership pins what each membership decision observes and changes,
// one script per case: a list of observations, made in order, against the
// list they must equal.
func TestMembership(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() []any
		want []any
	}{
		{
			"create splits the hash space over the alive servers; create again and drop",
			func() []any {
				m := enlisted(1, 2, 3)
				a, ta, okA := m.CreateTable("a", 2)
				again, tAgain, okAgain := m.CreateTable("a", 3)
				b, tb, okB := m.CreateTable("b", 9)
				dropped, okDrop := m.DropTable("a")
				_, okTwice := m.DropTable("a")
				return []any{a, ta, okA, again, len(tAgain), okAgain, b, len(tb), okB, dropped, okDrop, okTwice, m.Tablets(), m.Owned(3)}
			},
			[]any{
				uint64(1), []wire.Tablet{tab(1, 0, q2-1, 1), tab(1, q2, ^uint64(0), 2)}, true,
				uint64(1), 0, true,
				uint64(2), 3, true,
				uint64(1), true, false,
				[]wire.Tablet{tab(2, 0, 0x5555555555555555, 1), tab(2, 0x5555555555555556, 0xaaaaaaaaaaaaaaab, 2), tab(2, 0xaaaaaaaaaaaaaaac, ^uint64(0), 3)},
				[]wire.Tablet{tab(2, 0xaaaaaaaaaaaaaaac, ^uint64(0), 3)},
			},
		},
		{
			"no server alive: no table",
			func() []any {
				id, created, ok := enlisted().CreateTable("a", 1)
				return []any{id, created, ok}
			},
			[]any{uint64(0), []wire.Tablet(nil), false},
		},
		{
			"three misses in a row declare death, an answer starts the count again",
			func() []any {
				m := enlisted(1)
				var got []any
				for _, answered := range []bool{false, false, true, false, false, false} {
					got = append(got, m.Pinged(1, answered))
				}
				m.DeclareDead(1)
				return append(got, m.Pinged(1, false), m.IsAlive(1), m.Pinged(7, false))
			},
			[]any{false, false, false, false, false, true, false, false, false},
		},
		{
			"enlist admits, readmits a dead server with no will, and keeps a live one",
			func() []any {
				m := enlisted(3, 1)
				m.SetWill(1, []wire.WillPartition{{FirstHash: 0, LastHash: 9}})
				m.DeclareDead(1)
				return []any{m.Alive(), m.Enlist(1), m.Enlist(3), m.Enlist(2), m.Alive(), m.Servers(), m.members[1].will}
			},
			[]any{[]int32{3}, true, false, false, []int32{1, 2, 3}, []int32{1, 2, 3}, []wire.WillPartition(nil)},
		},
		{
			"a death with no will splits the dead master's tablets across the survivors, each partition flipping to its recovery master",
			func() []any {
				m := enlisted(1, 2, 3)
				m.CreateTable("a", 2)
				rec, restarts := m.DeclareDead(2)
				during := m.Tablets()
				assigned := m.Assign(rec)
				_, second := m.Recovered(2, q3, true)
				closedEarly := m.Close(rec)
				got, first := m.Recovered(2, q2, false)
				return []any{len(restarts), during, assigned, partitions(rec), second, closedEarly, got == rec, first, m.Close(rec), m.Close(rec), m.Tablets()}
			},
			[]any{
				0,
				[]wire.Tablet{tab(1, 0, q2-1, 1), recovering(1, q2, q3-1, 2), recovering(1, q3, ^uint64(0), 2)},
				true,
				[][4]any{{wire.WillPartition{FirstHash: q2, LastHash: q3 - 1}, int32(1), true, false}, {wire.WillPartition{FirstHash: q3, LastHash: ^uint64(0)}, int32(3), true, true}},
				[]wire.Tablet{tab(1, q3, ^uint64(0), 3)},
				false, true,
				[]wire.Tablet{tab(1, q2, q3-1, 1)},
				true, false,
				[]wire.Tablet{tab(1, 0, q2-1, 1), tab(1, q2, q3-1, 1), tab(1, q3, ^uint64(0), 3)},
			},
		},
		{
			"a will is followed, clipped to the dead master's tablets, and flips walk the tables in table-id order",
			func() []any {
				m := enlisted(1, 2)
				m.CreateTable("a", 2)
				m.CreateTable("b", 2)
				m.SetWill(2, []wire.WillPartition{{FirstHash: 0, LastHash: q3 - 1}, {FirstHash: q3, LastHash: ^uint64(0)}})
				rec, _ := m.DeclareDead(2)
				m.Assign(rec)
				_, flipped := m.Recovered(2, 0, true)
				return []any{partitions(rec), flipped, m.Tablets()}
			},
			[]any{
				[][4]any{{wire.WillPartition{FirstHash: 0, LastHash: q3 - 1}, int32(1), true, true}, {wire.WillPartition{FirstHash: q3, LastHash: ^uint64(0)}, int32(1), false, false}},
				[]wire.Tablet{tab(1, q2, q3-1, 1), tab(2, q2, q3-1, 1)},
				[]wire.Tablet{
					tab(1, 0, q2-1, 1), tab(1, q2, q3-1, 1), recovering(1, q3, ^uint64(0), 2),
					tab(2, 0, q2-1, 1), tab(2, q2, q3-1, 1), recovering(2, q3, ^uint64(0), 2),
				},
			},
		},
		{
			"two tables over one hash range: the dead master's shared range is partitioned once, each table's tablet fragmented once per partition",
			func() []any {
				m := enlisted(1, 2, 3)
				m.CreateTable("a", 3)
				m.CreateTable("b", 3)
				rec, _ := m.DeclareDead(2)
				disjoint := true
				for i, p := range rec.Partitions {
					for _, o := range rec.Partitions[i+1:] {
						if p.Range.FirstHash <= o.Range.LastHash && o.Range.FirstHash <= p.Range.LastHash {
							disjoint = false
						}
					}
				}
				fragments := map[wire.Tablet]int{}
				for _, tb := range m.Tablets() {
					if tb.Recovering {
						fragments[tb]++
					}
				}
				var counts []int
				for _, p := range rec.Partitions {
					for _, table := range []uint64{1, 2} {
						counts = append(counts, fragments[recovering(table, p.Range.FirstHash, p.Range.LastHash, 2)])
					}
				}
				return []any{disjoint, len(fragments), counts, partitions(rec)}
			},
			[]any{
				true, 4, []int{1, 1, 1, 1},
				[][4]any{
					{wire.WillPartition{FirstHash: 0x5555555555555556, LastHash: 0x8000000000000000}, int32(0), false, false},
					{wire.WillPartition{FirstHash: 0x8000000000000001, LastHash: 0xaaaaaaaaaaaaaaab}, int32(0), false, false},
				},
			},
		},
		{
			"a recovery master's death restarts its unfinished partitions round-robin on the survivors; an abandoned partition stays recovering; a failed start moves on",
			func() []any {
				m := enlisted(1, 2, 3, 4)
				m.CreateTable("a", 4)
				m.SetWill(4, splitRanges([]wire.Tablet{tab(1, q3, ^uint64(0), 4)}, 6))
				rec4, _ := m.DeclareDead(4) // six parts, to 1, 2, 3, 1, 2, 3
				m.Assign(rec4)
				m.Recovered(4, rec4.Partitions[0].Range.FirstHash, true)
				rec3, restarts := m.DeclareDead(3)
				var restarted []any
				for _, r := range restarts {
					restarted = append(restarted, r.Rec == rec4, r.Part.Range.FirstHash, r.Part.Master)
				}
				abandoned := m.Abandon(rec4, rec4.Partitions[1])
				again := m.Abandon(rec4, rec4.Partitions[1])
				retargeted := m.Retarget(rec3.Partitions[0], 3) // the 3rd alive server, modulo two
				return []any{restarted, len(rec3.Partitions), abandoned, again, rec4.Partitions[1].OK, m.Close(rec4), len(m.Owned(4)), m.Owned(4)[0], retargeted, rec3.Partitions[0].Master}
			},
			[]any{
				[]any{true, rec4Part(2).FirstHash, int32(1), true, rec4Part(5).FirstHash, int32(2)},
				2, true, false, false, false, 5,
				recovering(1, rec4Part(1).FirstHash, rec4Part(1).LastHash, 4),
				true, int32(2),
			},
		},
		{
			"a readmitted master's new tablets do not flip with its old partitions, nor start a second recovery while the first is open",
			func() []any {
				m := enlisted(1, 2)
				m.CreateTable("a", 2)
				rec, _ := m.DeclareDead(2)
				m.Assign(rec)
				m.Enlist(2)
				m.CreateTable("b", 2)
				again, _ := m.DeclareDead(2) // its first recovery is still open
				_, flipped := m.Recovered(2, q2, true)
				return []any{again == nil, flipped, m.Tablets()}
			},
			[]any{
				true,
				[]wire.Tablet{tab(1, q2, ^uint64(0), 1)},
				[]wire.Tablet{tab(1, 0, q2-1, 1), tab(1, q2, ^uint64(0), 1), tab(2, 0, q2-1, 1), tab(2, q2, ^uint64(0), 2)},
			},
		},
		{
			"a readmitted server takes tablets from the most loaded until it holds its floor share",
			func() []any {
				m := enlisted(1, 2)
				for _, name := range []string{"a", "b", "c"} {
					m.CreateTable(name, 2)
				}
				m.Enlist(3)
				var got []any
				for {
					donor, t, ok := m.NextMove(3)
					if !ok {
						break
					}
					got = append(got, donor, t)
					m.Moved(t, 3)
				}
				got = append(got, m.Owned(3))
				// At its share, the target takes nothing, even from a donor
				// with two more.
				m.Moved(tab(2, q2, ^uint64(0), 2), 1)
				m.Moved(tab(3, q2, ^uint64(0), 2), 1)
				_, _, ok := m.NextMove(3)
				return append(got, len(m.Owned(1)), ok)
			},
			[]any{
				int32(1), tab(1, 0, q2-1, 1),
				int32(2), tab(1, q2, ^uint64(0), 2),
				[]wire.Tablet{tab(1, 0, q2-1, 3), tab(1, q2, ^uint64(0), 3)},
				4, false,
			},
		},
	} {
		if got := c.run(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// rec4Part is the i-th sixth of [q3, 2^64-1], the will of the master that
// owns it.
func rec4Part(i int) wire.WillPartition {
	return splitRanges([]wire.Tablet{tab(1, q3, ^uint64(0), 4)}, 6)[i]
}
func TestSplitRangesUsedForWill(t *testing.T) {
	parts := splitRanges([]wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0)}}, 8)
	if len(parts) != 8 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[7].LastHash != ^uint64(0) {
		t.Fatal("last partition must end at max hash")
	}
}

func TestFillWillGaps(t *testing.T) {
	owned := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: 999}}
	// Stale will covers only [100..399] and [600..899].
	will := []wire.WillPartition{{FirstHash: 100, LastHash: 399}, {FirstHash: 600, LastHash: 899}}
	got := fillWillGaps(owned, will)
	// Expect the original two plus gaps [0..99], [400..599], [900..999].
	if len(got) != 5 {
		t.Fatalf("partitions = %d (%+v), want 5", len(got), got)
	}
	// Verify full coverage with no overlap gaps.
	covered := make([]bool, 1000)
	for _, w := range got {
		for h := w.FirstHash; h <= w.LastHash && h < 1000; h++ {
			covered[h] = true
		}
	}
	for h, ok := range covered {
		if !ok {
			t.Fatalf("hash %d not covered", h)
		}
	}
}

func TestFillWillGapsFullCoverageUnchanged(t *testing.T) {
	owned := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0)}}
	will := splitRanges(owned, 8)
	got := fillWillGaps(owned, will)
	if len(got) != len(will) {
		t.Fatalf("complete will gained gap partitions: %d -> %d", len(will), len(got))
	}
}

func TestFillWillGapsEmptyWill(t *testing.T) {
	owned := []wire.Tablet{{Table: 1, StartHash: 0, EndHash: 10}}
	if got := fillWillGaps(owned, nil); got != nil {
		t.Fatalf("empty will should stay empty (fallback path), got %+v", got)
	}
}

func TestFillWillGapsMaxHashBoundary(t *testing.T) {
	owned := []wire.Tablet{{Table: 1, StartHash: ^uint64(0) - 10, EndHash: ^uint64(0)}}
	will := []wire.WillPartition{{FirstHash: 0, LastHash: ^uint64(0)}}
	got := fillWillGaps(owned, will)
	if len(got) != 1 {
		t.Fatalf("full-range will must not grow: %+v", got)
	}
}
