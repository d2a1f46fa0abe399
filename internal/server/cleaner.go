package server

import (
	"fmt"

	"ramcloud/internal/sim"
)

// This file runs the log cleaner as a background proc: when memory
// utilization passes the threshold, live entries are compacted out of the
// emptiest sealed segments. Relocation happens under the log-head lock and
// burns worker-class CPU, so cleaning visibly competes with foreground
// writes — the effect the paper avoided by sizing workloads below the
// threshold, and which the cleaner ablation bench quantifies.
//
// Compaction here is in-memory (RAMCloud's first cleaning level): backup
// replicas of freed segments are not rewritten, which trades some disk
// space for not re-replicating survivors.

const cleanerCheckInterval = 50 * sim.Millisecond

// cleanerLoop polls utilization and compacts when needed. Start runs it
// only when CleanerThreshold is set.
func (s *Server) cleanerLoop(p *sim.Proc) {
	for {
		p.Sleep(cleanerCheckInterval)
		if s.dead {
			return
		}
		if s.st.Log.MemoryUtilization() < s.cfg.CleanerThreshold {
			continue
		}
		s.cleanOnce(p)
		if s.dead {
			return
		}
	}
}

// cleanOnce runs one cleaning pass of up to four victim segments.
func (s *Server) cleanOnce(p *sim.Proc) {
	s.lockWithSpin(p, s.logMu)
	stats, err := s.st.Clean(4)
	if err != nil {
		s.logMu.Unlock()
		panic(fmt.Sprintf("server %d: cleaner: %v", s.id, err))
	}
	// CPU cost of the copy: per relocated entry plus per byte moved.
	moved := stats.EntriesRelocated + stats.TombstonesRelocated
	cost := sim.Duration(int64(2*sim.Microsecond)*int64(moved)) +
		sim.Scale(s.cfg.Costs.PerKByte, float64(stats.BytesRelocated)/1024)
	s.busy(p, cost)
	s.logMu.Unlock()
	s.stats.CleanerPasses.Inc()
	s.stats.CleanerFreed.Add(int64(stats.SegmentsFreed))
}
