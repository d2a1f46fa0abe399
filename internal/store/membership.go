package store

import (
	"maps"
	"slices"
	"sort"

	"ramcloud/internal/wire"
)

// Membership is the coordinator's state, and the rules both coordinators
// (internal/coordinator and realnode.Coordinator) change it by: which
// servers are enlisted and alive, how many pings each has missed and what
// its will says, the tables by name, and the tablet map. A death splits
// the dead master's tablets into partitions and scatters them over the
// survivors, each partition flipping to its recovery master when its
// replay is done. The simulator replays the lost segments first; the real
// coordinator has nothing to replay and flips every partition at once.
//
// Every walk of the tablet map goes in table-id order (ids are drawn
// ascending, so the tables are kept in the order they were created), so
// what a caller does with a walk's result does not depend on map order.
type Membership struct {
	missThreshold int
	members       map[int32]*member
	order         []int32  // every enlisted id, ascending
	tables        []*table // ascending id
	nextTableID   uint64
	recoveries    map[int32]*Recovery // open, by crashed master
}

type member struct {
	alive  bool
	misses int
	will   []wire.WillPartition
}

type table struct {
	id      uint64
	name    string
	tablets []wire.Tablet
}

// Partition is one key-hash range of a crashed master's recovery.
type Partition struct {
	Range  wire.WillPartition
	Master int32 // its recovery master; 0 until Assign
	Done   bool  // recovered or abandoned
	OK     bool  // its recovery master reported success
}

// Recovery is one crashed master's recovery, open until every partition
// is done.
type Recovery struct {
	Crashed    int32
	Partitions []*Partition
	Segments   []wire.SegmentLoc // where the lost segments live; the caller's to fill
}

// Restart is an unfinished partition whose recovery master died: its
// replay starts over on Part.Master.
type Restart struct {
	Rec  *Recovery
	Part *Partition
}

// NewMembership returns a coordinator's state with no servers and no
// tables; missThreshold consecutive missed pings declare a server dead.
func NewMembership(missThreshold int) *Membership {
	return &Membership{
		missThreshold: missThreshold,
		members:       make(map[int32]*member),
		recoveries:    make(map[int32]*Recovery),
	}
}

// Enlist admits server id alive, with no misses and no will. An id already
// known is readmitted: a restarted process holds nothing the old one did,
// so its old will is void. It reports whether id had been declared dead,
// so its failure detector must start again.
func (m *Membership) Enlist(id int32) (readmitted bool) {
	s := m.members[id]
	if s == nil {
		m.members[id] = &member{alive: true}
		m.order = append(m.order, id)
		slices.Sort(m.order)
		return false
	}
	readmitted = !s.alive
	s.alive, s.misses, s.will = true, 0, nil
	return readmitted
}

// Servers returns the ids of every server ever enlisted, ascending.
func (m *Membership) Servers() []int32 { return slices.Clone(m.order) }

// Alive returns the ids of the servers alive, ascending.
func (m *Membership) Alive() []int32 {
	var ids []int32
	for _, id := range m.order {
		if m.members[id].alive {
			ids = append(ids, id)
		}
	}
	return ids
}

// IsAlive reports whether server id is enlisted and alive.
func (m *Membership) IsAlive(id int32) bool {
	s := m.members[id]
	return s != nil && s.alive
}

// Pinged records a ping of server id, answered or not, and reports
// whether the misses in a row now declare it dead.
func (m *Membership) Pinged(id int32, answered bool) (dead bool) {
	s := m.members[id]
	if s == nil {
		return false
	}
	if answered {
		s.misses = 0
		return false
	}
	s.misses++
	return s.misses >= m.missThreshold && s.alive
}

// SetWill stores how server id wants its tablets split on its death.
func (m *Membership) SetWill(id int32, will []wire.WillPartition) {
	if s := m.members[id]; s != nil {
		s.will = will
	}
}

// CreateTable creates the table name over span of the alive servers (all
// of them when span is out of range) and returns its id and tablets, for
// the caller to hand to their masters. A table that exists is returned
// with no tablets; with no server alive, ok is false.
func (m *Membership) CreateTable(name string, span int) (id uint64, created []wire.Tablet, ok bool) {
	for _, t := range m.tables {
		if t.name == name {
			return t.id, nil, true
		}
	}
	alive := m.Alive()
	if len(alive) == 0 {
		return 0, nil, false
	}
	if span <= 0 || span > len(alive) {
		span = len(alive)
	}
	m.nextTableID++
	t := &table{id: m.nextTableID, name: name, tablets: SplitHashSpace(m.nextTableID, span, alive)}
	m.tables = append(m.tables, t)
	return t.id, t.tablets, true
}

// DropTable forgets the table name and its tablets and returns its id.
func (m *Membership) DropTable(name string) (id uint64, ok bool) {
	for i, t := range m.tables {
		if t.name == name {
			m.tables = slices.Delete(m.tables, i, i+1)
			return t.id, true
		}
	}
	return 0, false
}

// Tablets returns a copy of the tablet map.
func (m *Membership) Tablets() []wire.Tablet {
	var all []wire.Tablet
	for _, t := range m.tables {
		all = append(all, t.tablets...)
	}
	return all
}

// Owned returns the tablets server id owns, recovering or not.
func (m *Membership) Owned(id int32) []wire.Tablet {
	var out []wire.Tablet
	for _, t := range m.tables {
		for _, tb := range t.tablets {
			if tb.Master == id {
				out = append(out, tb)
			}
		}
	}
	return out
}

// DeclareDead marks alive server id dead. Every unfinished partition it
// was recovering gets a new recovery master; those are returned, in
// crashed-id order, for the caller to restart. Unless id's own recovery is
// still open, its tablets are split along its will, or across the
// survivors when it left none (RAMCloud's goal of "as many machines
// performing the crash-recovery as possible"), and marked recovering; the
// new recovery is returned, its partitions not yet assigned. It is nil
// when id owned nothing.
func (m *Membership) DeclareDead(id int32) (rec *Recovery, restarts []Restart) {
	s := m.members[id]
	if s == nil || !s.alive {
		return nil, nil
	}
	s.alive = false
	restarts = m.restart(id)
	if m.recoveries[id] != nil {
		return nil, restarts
	}
	// A stored will can be stale: ranges the master acquired through an
	// earlier recovery may be missing, so gaps are filled from the
	// master's actual tablets — otherwise that data would silently drop
	// out of the tablet map.
	owned := mergeOverlaps(m.Owned(id))
	will := fillWillGaps(owned, s.will)
	if len(will) == 0 {
		will = splitRanges(owned, len(m.Alive()))
	}
	if len(will) == 0 {
		return nil, restarts
	}
	m.fragment(id, will)
	rec = &Recovery{Crashed: id}
	for _, w := range will {
		rec.Partitions = append(rec.Partitions, &Partition{Range: w})
	}
	m.recoveries[id] = rec
	return rec, restarts
}

// restart gives every unfinished partition that dead was recovering the
// next survivor, round-robin within each recovery, the recoveries in
// crashed-id order.
func (m *Membership) restart(dead int32) []Restart {
	var out []Restart
	for _, crashed := range slices.Sorted(maps.Keys(m.recoveries)) {
		rec := m.recoveries[crashed]
		alive := m.Alive()
		if len(alive) == 0 {
			continue
		}
		next := 0
		for _, p := range rec.Partitions {
			if p.Done || p.Master != dead {
				continue
			}
			p.Master = alive[next%len(alive)]
			next++
			out = append(out, Restart{rec, p})
		}
	}
	return out
}

// fragment splits every tablet of dead along the will's partition
// boundaries, so that each fragment can flip on its own, and marks the
// fragments recovering.
func (m *Membership) fragment(dead int32, will []wire.WillPartition) {
	for _, t := range m.tables {
		var out []wire.Tablet
		for _, tb := range t.tablets {
			if tb.Master != dead {
				out = append(out, tb)
				continue
			}
			for _, w := range will {
				lo, hi := max(tb.StartHash, w.FirstHash), min(tb.EndHash, w.LastHash)
				if lo > hi {
					continue
				}
				out = append(out, wire.Tablet{Table: t.id, StartHash: lo, EndHash: hi, Master: dead, Recovering: true})
			}
		}
		t.tablets = out
	}
}

// Assign gives rec's partitions recovery masters, round-robin over the
// alive servers; false when none is alive.
func (m *Membership) Assign(rec *Recovery) bool {
	alive := m.Alive()
	if len(alive) == 0 {
		return false
	}
	for i, p := range rec.Partitions {
		p.Master = alive[i%len(alive)]
	}
	return true
}

// Retarget moves p to the attempt-th alive server (modulo their number)
// after its recovery master failed to start it; false when none is alive.
func (m *Membership) Retarget(p *Partition, attempt int) bool {
	alive := m.Alive()
	if len(alive) == 0 {
		return false
	}
	p.Master = alive[attempt%len(alive)]
	return true
}

// Recovered records that the partitions of crashed's open recovery that
// start at firstHash are replayed, and flips their fragments to their
// recovery masters. It returns the recovery (nil when none is open) and
// the flipped tablets, each with its new master, for the caller to hand
// over.
func (m *Membership) Recovered(crashed int32, firstHash uint64, ok bool) (*Recovery, []wire.Tablet) {
	rec := m.recoveries[crashed]
	if rec == nil {
		return nil, nil
	}
	var flipped []wire.Tablet
	for _, p := range rec.Partitions {
		if p.Range.FirstHash != firstHash || p.Done {
			continue
		}
		p.Done, p.OK = true, ok
		for _, t := range m.tables {
			for i := range t.tablets {
				tb := &t.tablets[i]
				if tb.Master == crashed && tb.Recovering && tb.StartHash >= p.Range.FirstHash && tb.EndHash <= p.Range.LastHash {
					tb.Master, tb.Recovering = p.Master, false
					flipped = append(flipped, *tb)
				}
			}
		}
	}
	return rec, flipped
}

// Abandon gives up on partition p of rec, whose replay could not start;
// its fragments stay recovering. It reports whether p was still unfinished.
func (m *Membership) Abandon(rec *Recovery, p *Partition) bool {
	if p.Done {
		return false
	}
	p.Done, p.OK = true, false
	return true
}

// Close closes rec once every partition is done, and reports whether this
// call closed it.
func (m *Membership) Close(rec *Recovery) bool {
	unfinished := slices.ContainsFunc(rec.Partitions, func(p *Partition) bool { return !p.Done })
	if _, open := m.recoveries[rec.Crashed]; !open || unfinished {
		return false
	}
	delete(m.recoveries, rec.Crashed)
	return true
}

// NextMove picks the next tablet to migrate toward target, a readmitted
// server, until it holds the floor of a fair share: the first tablet of
// the alive server with the most (lowest id on ties), if that one has
// more than one to spare. Recovering tablets neither count nor move.
func (m *Membership) NextMove(target int32) (donor int32, t wire.Tablet, ok bool) {
	counts := make(map[int32]int)
	total := 0
	for _, tbl := range m.tables {
		for _, tb := range tbl.tablets {
			if !tb.Recovering {
				counts[tb.Master]++
				total++
			}
		}
	}
	alive := m.Alive()
	if len(alive) == 0 || total == 0 {
		return 0, t, false
	}
	if fair := total / len(alive); counts[target] >= fair || fair == 0 {
		return 0, t, false
	}
	donor = -1
	for _, id := range alive {
		if id != target && (donor < 0 || counts[id] > counts[donor]) {
			donor = id
		}
	}
	if donor < 0 || counts[donor] <= counts[target]+1 {
		return 0, t, false // moving one more would just swap the imbalance
	}
	for _, tbl := range m.tables {
		for _, tb := range tbl.tablets {
			if tb.Master == donor && !tb.Recovering {
				return donor, tb, true
			}
		}
	}
	return 0, t, false
}

// Moved records that tablet t migrated from its master to target.
func (m *Membership) Moved(t wire.Tablet, target int32) {
	for _, tbl := range m.tables {
		for i := range tbl.tablets {
			if tb := &tbl.tablets[i]; tb.Table == t.Table && tb.StartHash == t.StartHash && tb.EndHash == t.EndHash && tb.Master == t.Master {
				tb.Master = target
				return
			}
		}
	}
}

// mergeOverlaps returns the hash ranges of tablets with every overlapping
// pair merged into one, so that tables sharing a range yield one
// partition for it, not one per table. A merged range stays where its
// first tablet was; adjacent ranges stay apart.
func mergeOverlaps(tablets []wire.Tablet) []wire.Tablet {
	var out []wire.Tablet
	for _, t := range tablets {
		r := wire.Tablet{StartHash: t.StartHash, EndHash: t.EndHash}
		at := len(out)
		for i := len(out) - 1; i >= 0; i-- {
			if o := out[i]; o.StartHash <= r.EndHash && r.StartHash <= o.EndHash {
				r.StartHash, r.EndHash = min(r.StartHash, o.StartHash), max(r.EndHash, o.EndHash)
				out, at = slices.Delete(out, i, i+1), i
			}
		}
		out = slices.Insert(out, at, r)
	}
	return out
}

// fillWillGaps returns the will extended with one partition per hash
// range that the owned tablets cover but the will does not.
func fillWillGaps(owned []wire.Tablet, will []wire.WillPartition) []wire.WillPartition {
	if len(will) == 0 {
		return nil
	}
	out := append([]wire.WillPartition(nil), will...)
	for _, t := range owned {
		var ivs []wire.WillPartition
		for _, w := range will {
			lo := max(t.StartHash, w.FirstHash)
			hi := min(t.EndHash, w.LastHash)
			if lo <= hi {
				ivs = append(ivs, wire.WillPartition{FirstHash: lo, LastHash: hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].FirstHash < ivs[j].FirstHash })
		cur := t.StartHash
		covered := false
		for _, iv := range ivs {
			if iv.FirstHash > cur {
				out = append(out, wire.WillPartition{FirstHash: cur, LastHash: iv.FirstHash - 1})
			}
			if iv.LastHash >= t.EndHash {
				covered = true
				break
			}
			if iv.LastHash+1 > cur {
				cur = iv.LastHash + 1
			}
		}
		if !covered && cur <= t.EndHash {
			out = append(out, wire.WillPartition{FirstHash: cur, LastHash: t.EndHash})
		}
	}
	return out
}
