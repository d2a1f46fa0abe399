package core

import (
	"strconv"

	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// Scenario describes one measured run: cluster shape, workload, load
// level, replication factor and optional fault injection — the knobs the
// paper sweeps across its experiments.
//
// The client population is described either by the flat fields (Clients,
// Workload, RequestsPerClient, Rate, BatchSize, Window — one homogeneous
// closed-loop population, the paper's setup) or by explicit Groups.
// When Groups is non-empty it wins and the flat fields are ignored;
// otherwise the flat fields lower onto a single implicit group with
// identical behavior. Phases apply to both forms.
type Scenario struct {
	Name    string
	Profile Profile

	Servers int
	Clients int
	RF      int // replication factor; 0 disables replication

	Workload          ycsb.Workload
	RequestsPerClient int
	Rate              float64 // per-client throttle (ops/s); 0 = unthrottled

	// BatchSize > 1 drives clients through MultiRead/MultiWrite batches;
	// Window > 1 pipelines through the async API (see ycsb.RunOptions).
	BatchSize int
	Window    int

	// Groups, when non-empty, replaces the flat client fields with
	// heterogeneous client populations (mixed tenants, staggered starts,
	// per-group arrival modes).
	Groups []ClientGroup

	// Phases modulate every group's Rate over simulated time (ramps,
	// steps, diurnal sines). Groups whose Rate is 0 (unthrottled closed
	// loops) are not modulated.
	Phases []LoadPhase

	Seed int64

	// KillAfter, when > 0, crashes one server at that simulated time.
	// It is the legacy single-kill form: when Faults is empty it lowers
	// onto a one-event schedule ([{At: KillAfter, Kind: FaultKill,
	// Target: KillTarget}]) with identical behaviour.
	KillAfter  sim.Duration
	KillTarget int // server index to kill; -1 picks one deterministically

	// Faults, when non-empty, is the full fault schedule (kills, restarts,
	// partitions, loss windows, slow nodes) and overrides KillAfter.
	Faults []FaultEvent

	// IdleSeconds runs the cluster without client load for this long
	// (after the kill, recovery is awaited) — the Fig. 9 setup.
	IdleSeconds int

	// Deadline aborts the run and marks it crashed — reproducing the
	// paper's "experiments were always crashing because of excessive
	// timeouts" cells. Zero means no deadline.
	Deadline sim.Duration
}

// Result is everything a scenario run measures.
type Result struct {
	Scenario string

	TotalOps   int64
	Duration   sim.Duration // first workload op to last completion
	Throughput float64      // ops/s aggregate

	AvgPowerPerServer float64
	TotalJoules       float64
	OpsPerJoule       float64

	CPUMeanPerNode []float64 // mean utilization per server over the window
	CPUMin, CPUMax float64   // min/max of per-node means (Table I)

	// Per-second series averaged across server nodes (Figs. 9a, 9b).
	CPUSeries   *metrics.Series // utilization fraction
	PowerSeries *metrics.Series // watts

	// Aggregate disk I/O across servers (Fig. 12), MB/s per second.
	DiskReadMBs  *metrics.Series
	DiskWriteMBs *metrics.Series

	// Per-client average latency per second in microseconds (Fig. 10).
	ClientLatencyUs []*metrics.Series

	ReadLatency  *metrics.Histogram
	WriteLatency *metrics.Histogram

	Timeouts int64
	Failures int64
	Retries  int64

	// Recovery, when a kill was injected.
	KilledAt         sim.Time
	RecoveryTime     sim.Duration // kill -> last partition flipped
	Recovered        bool
	RecoveryTimedOut bool         // controller gave up waiting (10 min)
	DetectTime       sim.Duration // kill -> detector declared death

	// Rejoin, when a restart was injected.
	Rejoined        bool
	RejoinedAt      sim.Time
	TabletsMigrated int64 // tablets re-spread onto restarted servers

	// Fault-injection and detector accounting.
	NetDroppedFault     int64 // messages lost to injected faults
	NetDuplicated       int64 // extra copies delivered by dup models
	Suspicions          int64 // detector ping misses
	FalsePositiveDeaths int64 // live servers declared dead

	// Cleaner activity across all servers.
	CleanerPasses int64
	CleanerFreed  int64

	Crashed bool // deadline exceeded

	// Engine is what the run's engine ran, up to the end of the run:
	// events, proc resumes, callbacks and sequence numbers drawn. It is
	// never rendered.
	Engine sim.Counts

	// Groups breaks the run down per client group (always at least the
	// implicit flat-field group); Phases slices it along the scenario's
	// load phases (empty without phases).
	Groups []GroupResult
	Phases []PhaseResult
}

// Run executes a scenario to completion and collects its measurements.
func Run(s Scenario) *Result {
	if s.Profile.Machine.Cores == 0 {
		s.Profile = DefaultProfile()
	}
	eng := sim.New(s.Seed)
	cl := NewCluster(eng, s.Profile, s.Servers, s.RF)
	cl.Start()

	groups := s.groups()
	totalClients := 0
	for _, g := range groups {
		totalClients += g.Clients
	}

	table := cl.CreateTable("usertable")
	// Load the largest dataset any group addresses; groups share the table.
	loadRecords, loadSize := 0, 0
	for _, g := range groups {
		if g.Workload.RecordCount > loadRecords {
			loadRecords, loadSize = g.Workload.RecordCount, g.Workload.RecordSize
		}
	}
	if loadRecords > 0 {
		cl.BulkLoad(table, loadRecords, loadSize)
	}

	res := &Result{Scenario: s.Name}
	wg := sim.NewWaitGroup(eng)
	var workStart, workEnd sim.Time

	// Clients: one proc per client, numbered globally across groups so
	// the lowered single-group form spawns the exact legacy sequence.
	groupOf := make([]int, 0, totalClients)
	idx := 0
	for gi, g := range groups {
		for j := 0; j < g.Clients; j++ {
			i := idx
			idx++
			groupOf = append(groupOf, gi)
			c := cl.NewClient()
			wg.Add(1)
			opts := s.runOptionsFor(g, table, i)
			wl, start := g.Workload, g.Start
			eng.Go("client-"+strconv.Itoa(i), func(p *sim.Proc) {
				defer wg.Done()
				p.Sleep(sim.Millisecond) // allow bring-up to settle
				if start > 0 {
					p.Sleep(start)
				}
				ycsb.RunClient(p, c, wl, opts)
			})
		}
	}

	// Fault injection: the explicit schedule, or KillAfter lowered onto a
	// single kill event.
	faults := s.faultSchedule()
	nKills, nRestarts, lastRestart := faultCounts(faults)
	if len(faults) > 0 {
		armFaults(eng, cl, &s, faults, res)
	}

	// Controller: decide when the run is over.
	done := false
	finish := func() {
		if done {
			return
		}
		done = true
		if workEnd == 0 {
			workEnd = eng.Now()
		}
		cl.StopMetering()
		eng.Stop()
	}
	if s.Deadline > 0 {
		eng.Schedule(s.Deadline, func() {
			if !done {
				res.Crashed = true
				finish()
			}
		})
	}
	eng.Go("controller", func(p *sim.Proc) {
		workStart = p.Now()
		wg.Wait(p)
		workEnd = p.Now()
		if nKills > 0 {
			// Await recovery completion (poll the coordinator's records).
			for len(cl.Coord.Records()) < nKills {
				p.Sleep(100 * sim.Millisecond)
				if p.Now() > sim.Time(10*sim.Minute) {
					res.RecoveryTimedOut = true
					break // recovery never finished; report as-is
				}
			}
		}
		if nRestarts > 0 {
			// Await the last restart and the drain of its tablet re-spread.
			// <= keeps polling until we are strictly past the restart event,
			// so a poll landing exactly on it cannot observe pending == 0
			// before Readmit has run.
			for p.Now() <= sim.Time(lastRestart) || cl.Coord.RespreadsPending() > 0 {
				p.Sleep(100 * sim.Millisecond)
				if p.Now() > sim.Time(10*sim.Minute) {
					res.RecoveryTimedOut = true
					break
				}
			}
		}
		if s.IdleSeconds > 0 {
			p.Sleep(sim.Duration(s.IdleSeconds) * sim.Second)
		}
		// Let the final PDU tick cover the last full second.
		p.Sleep(sim.Second)
		finish()
	})

	eng.Run()
	finalNow := eng.Now()
	res.Engine = eng.Counts()
	eng.Shutdown()
	for _, node := range cl.Nodes {
		node.FlushAccounting(finalNow)
	}

	// Measurement window: whole seconds covered by the workload (power
	// and CPU means are computed there, so an idle tail does not dilute
	// them). Series cover the entire run, recovery included.
	startSec := 0
	endSec := int(int64(workEnd) / int64(sim.Second))
	if endSec < 1 {
		endSec = 1
	}
	seriesEnd := int(int64(finalNow) / int64(sim.Second))
	if seriesEnd < endSec {
		seriesEnd = endSec
	}
	if totalClients == 0 {
		// Idle/recovery scenarios: measure over the whole run.
		endSec = seriesEnd
	}
	res.Duration = workEnd.Sub(workStart)

	// Client-side aggregation.
	res.ReadLatency = metrics.NewHistogram()
	res.WriteLatency = metrics.NewHistogram()
	for _, c := range cl.Clients {
		st := c.Stats()
		res.TotalOps += st.Ops.Value()
		res.Timeouts += st.Timeouts.Value()
		res.Failures += st.Failures.Value()
		res.Retries += st.Retries.Value()
		res.ReadLatency.Merge(st.ReadLatency)
		res.WriteLatency.Merge(st.WriteLatency)
		var lat metrics.Series
		for k := 0; k < st.LatCntSecond.Len(); k++ {
			if n := st.LatCntSecond.At(k); n > 0 {
				lat.Set(k, st.LatSumSecond.At(k)/n/1000) // us
			}
		}
		res.ClientLatencyUs = append(res.ClientLatencyUs, &lat)
	}
	if totalClients > 0 && res.Duration > 0 {
		res.Throughput = float64(res.TotalOps) / res.Duration.Seconds()
	}

	// Server-side aggregation.
	rep := cl.EnergyReport(startSec, endSec, res.TotalOps)
	res.AvgPowerPerServer = rep.MeanNodeWatts()
	res.TotalJoules = rep.TotalJoules
	res.OpsPerJoule = rep.EnergyEfficiency()

	res.CPUMin, res.CPUMax = 2, -1
	cpuSeries := &metrics.Series{}
	powSeries := &metrics.Series{}
	readMB := &metrics.Series{}
	writeMB := &metrics.Series{}
	for i, node := range cl.Nodes {
		m := node.MeanUtil(startSec, endSec)
		res.CPUMeanPerNode = append(res.CPUMeanPerNode, m)
		if m < res.CPUMin {
			res.CPUMin = m
		}
		if m > res.CPUMax {
			res.CPUMax = m
		}
		for k := 0; k < seriesEnd; k++ {
			cpuSeries.Add(k, node.UtilSecond(k)/float64(len(cl.Nodes)))
			powSeries.Add(k, cl.PDUs[i].WattsAt(k)/float64(len(cl.Nodes)))
			readMB.Add(k, cl.Disks[i].ReadBytesSecond(k)/1e6)
			writeMB.Add(k, cl.Disks[i].WriteBytesSecond(k)/1e6)
		}
	}
	res.CPUSeries = cpuSeries
	res.PowerSeries = powSeries
	res.DiskReadMBs = readMB
	res.DiskWriteMBs = writeMB

	for _, srv := range cl.Servers {
		res.CleanerPasses += srv.Stats().CleanerPasses.Value()
		res.CleanerFreed += srv.Stats().CleanerFreed.Value()
	}

	// Recovery bookkeeping.
	if recs := cl.Coord.Records(); len(recs) > 0 && res.KilledAt > 0 {
		res.Recovered = true
		res.RecoveryTime = recs[0].DoneAt.Sub(res.KilledAt)
		res.DetectTime = recs[0].DetectedAt.Sub(res.KilledAt)
	}

	// Fault-injection and detector accounting.
	res.NetDroppedFault = cl.Net.DroppedByFault()
	res.NetDuplicated = cl.Net.Duplicated()
	res.Suspicions = cl.Coord.Suspicions()
	res.FalsePositiveDeaths = cl.Coord.FalsePositives()
	res.TabletsMigrated = cl.Coord.TabletsMigrated()

	// Composable-scenario breakdowns: per-group and per-phase slices.
	res.Groups = buildGroupResults(cl, groups, groupOf, seriesEnd)
	res.Phases = buildPhaseResults(s, cl, seriesEnd)
	return res
}
