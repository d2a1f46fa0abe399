package logstore

import "sort"

// This file implements the log cleaner. RAMCloud triggers cleaning when
// memory utilization passes a threshold; the cleaner picks sealed segments
// by LFS-style cost-benefit score, relocates their live entries to the log
// head, and frees the victims. The paper deliberately sizes its workloads
// to never trigger the cleaner (Section III-C); the cleaner ablation bench
// shows what happens when it does run.

// CleanStats summarises one cleaning pass.
type CleanStats struct {
	SegmentsFreed       int
	BytesReclaimed      int64
	EntriesRelocated    int
	BytesRelocated      int64
	TombstonesDropped   int
	TombstonesRelocated int
}

// costBenefit returns the LFS cleaning score for a segment: segments with
// little live data and older age are cleaned first.
func (l *Log) costBenefit(s *Segment) float64 {
	u := s.Utilization()
	age := float64(l.nextSeq - s.seq)
	return (1 - u) * age / (1 + u)
}

// SelectVictims returns up to maxSegments sealed segments ordered by
// descending cost-benefit score. Segments that are fully live are skipped:
// cleaning them reclaims nothing.
func (l *Log) SelectVictims(maxSegments int) []*Segment {
	var cands []*Segment
	for _, s := range l.segments {
		if s.sealed && s.live < s.accounted {
			cands = append(cands, s)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := l.costBenefit(cands[i]), l.costBenefit(cands[j])
		if si != sj {
			return si > sj
		}
		return cands[i].id < cands[j].id // deterministic tiebreak
	})
	if len(cands) > maxSegments {
		cands = cands[:maxSegments]
	}
	return cands
}

// IsLiveFunc reports whether the object entry at ref is still the current
// version of its key (i.e. the hash table points at it).
type IsLiveFunc func(ref Ref, e Entry) bool

// RelocatedFunc observes a live entry being moved from old to new; the
// master uses it to fix the hash table and re-replicate survivor data. e
// is a view of the entry at old; the victim's bytes stay readable after it
// is freed, for as long as a view of them is held.
type RelocatedFunc func(old, new Ref, e Entry)

// Clean performs one cleaning pass over up to maxSegments victims:
// live objects (per isLive) and still-needed tombstones are relocated to
// the log head, then the victims are freed. Relocation preserves entry
// versions. The capacity check is suspended during relocation (the pass
// frees more than it writes).
func (l *Log) Clean(maxSegments int, isLive IsLiveFunc, relocated RelocatedFunc) (CleanStats, error) {
	var stats CleanStats
	victims := l.SelectVictims(maxSegments)
	if len(victims) == 0 {
		return stats, nil
	}
	dying := make(map[uint64]bool, len(victims))
	for _, v := range victims {
		dying[v.id] = true
	}
	for _, v := range victims {
		for i := range v.offs {
			var e Entry
			e.decode(v.bytesAt(i))
			old := v.RefAt(i)
			keep := false
			isTomb := e.Type == EntryTombstone
			if isTomb {
				// A tombstone is needed while the segment that held its
				// object still exists (and is not dying in this pass).
				_, exists := l.segments[e.ObjectSegment]
				keep = exists && !dying[e.ObjectSegment]
			} else {
				keep = isLive != nil && isLive(old, e)
			}
			if !keep {
				if isTomb {
					stats.TombstonesDropped++
				}
				continue
			}
			newRef, err := l.appendRelocating(e)
			if err != nil {
				return stats, err
			}
			if isTomb {
				stats.TombstonesRelocated++
			} else {
				stats.EntriesRelocated++
			}
			stats.BytesRelocated += int64(e.StorageSize())
			if relocated != nil {
				relocated(old, newRef, e)
			}
		}
	}
	for _, v := range victims {
		stats.SegmentsFreed++
		stats.BytesReclaimed += int64(v.accounted)
		l.free(v)
	}
	return stats, nil
}

// appendRelocating appends without the total-capacity check (victims are
// about to be freed) and without touching versions.
func (l *Log) appendRelocating(e Entry) (Ref, error) {
	size := e.StorageSize()
	if size > l.cfg.SegmentBytes {
		return Ref{}, ErrEntryLarge
	}
	if l.NeedsRoll(size) {
		l.Roll()
	}
	return l.put(&e, size), nil
}
