package core

import (
	"fmt"
	"math"

	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// This file is the composable half of the scenario API: heterogeneous
// client groups (each with its own workload, arrival mode and lifetime)
// and load phases (time-varying rate shapes shared by every group). The
// flat Scenario fields lower losslessly onto a single implicit group, so
// every experiment written against the one-population API keeps its exact
// event sequence.

// ArrivalMode selects how a group's clients issue requests.
type ArrivalMode uint8

// Arrival modes. ArrivalDefault infers the mode from the group's knobs
// the same way the flat Scenario fields always did: BatchSize > 1 means
// batched, Window > 1 means windowed, otherwise the paper's closed loop.
const (
	ArrivalDefault  ArrivalMode = iota
	ArrivalClosed               // issue, wait, repeat (the paper's loop)
	ArrivalOpen                 // open-loop Poisson arrivals at Rate ops/s
	ArrivalBatched              // closed loop over MultiRead/MultiWrite batches
	ArrivalWindowed             // closed loop with an async pipeline window
)

// String names the mode for renderings.
func (m ArrivalMode) String() string {
	switch m {
	case ArrivalOpen:
		return "open"
	case ArrivalBatched:
		return "batched"
	case ArrivalWindowed:
		return "windowed"
	default:
		return "closed"
	}
}

// ClientGroup is one homogeneous client population inside a scenario.
// A scenario may run several groups concurrently (mixed tenants), each
// with its own workload, arrival mode and lifetime.
type ClientGroup struct {
	Name    string
	Clients int

	Workload          ycsb.Workload
	RequestsPerClient int // per client; 0 = bounded by Stop / phase span

	Arrival ArrivalMode
	// Rate is the per-client target in ops/s: a closed-loop throttle
	// (ArrivalClosed/Batched/Windowed; 0 = unthrottled) or the Poisson
	// arrival rate (ArrivalOpen, required). Load phases modulate it.
	Rate      float64
	BatchSize int // ArrivalBatched: ops per MultiRead/MultiWrite round
	Window    int // ArrivalWindowed: outstanding ops per client

	// Start delays the group's clients by this offset from scenario
	// start; Stop (when > 0) ends issuing at that absolute offset even if
	// requests remain. Together they stagger tenants within one run.
	Start sim.Duration
	Stop  sim.Duration

	// Warmup fetches the tablet map before the group's first operation
	// (see ycsb.RunOptions.Warmup). Latency-vs-load sweeps set it so the
	// first arrivals ride a warm route instead of parking RPC-less.
	Warmup bool
}

// mode resolves ArrivalDefault against the group's knobs.
func (g ClientGroup) mode() ArrivalMode {
	if g.Arrival != ArrivalDefault {
		return g.Arrival
	}
	switch {
	case g.BatchSize > 1:
		return ArrivalBatched
	case g.Window > 1:
		return ArrivalWindowed
	default:
		return ArrivalClosed
	}
}

// LoadShape selects the wave form of a LoadPhase.
type LoadShape uint8

// Load shapes. Each phase evaluates to a rate multiplier over [0, 1]
// of its span; x is the fraction of the phase elapsed.
const (
	ShapeConstant LoadShape = iota // From throughout
	ShapeRamp                      // linear From -> To
	ShapeStep                      // From -> To in Steps discrete jumps
	ShapeSine                      // half-cosine wave From -> To -> From per Period
)

// String names the shape for renderings.
func (s LoadShape) String() string {
	switch s {
	case ShapeRamp:
		return "ramp"
	case ShapeStep:
		return "step"
	case ShapeSine:
		return "sine"
	default:
		return "const"
	}
}

// LoadPhase modulates every group's Rate over one span of simulated
// time. Phases run back to back from scenario start; a scenario with
// phases derives its default stop time from their total span.
type LoadPhase struct {
	Name     string
	Duration sim.Duration
	Shape    LoadShape

	// From and To are rate multipliers (1.0 = the group's base Rate).
	// Constant uses From only. Sine oscillates between From and To,
	// starting and ending at From with its crest at To.
	From, To float64

	// Period is the sine wavelength (default: the phase duration).
	Period sim.Duration

	// Steps is the jump count for ShapeStep (default 4).
	Steps int
}

// scaleAt evaluates the phase multiplier at fraction x in [0, 1] of the
// phase, with elapsed absolute time into the phase for periodic shapes.
func (ph LoadPhase) scaleAt(x float64, elapsed sim.Duration) float64 {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	switch ph.Shape {
	case ShapeRamp:
		return ph.From + (ph.To-ph.From)*x
	case ShapeStep:
		steps := ph.Steps
		if steps <= 0 {
			steps = 4
		}
		k := int(x * float64(steps))
		if k >= steps {
			k = steps - 1
		}
		if steps == 1 {
			return ph.To
		}
		return ph.From + (ph.To-ph.From)*float64(k)/float64(steps-1)
	case ShapeSine:
		period := ph.Period
		if period <= 0 {
			period = ph.Duration
		}
		if period <= 0 {
			return ph.From
		}
		mid := (ph.From + ph.To) / 2
		amp := (ph.To - ph.From) / 2
		theta := 2 * math.Pi * float64(elapsed) / float64(period)
		return mid - amp*math.Cos(theta)
	default:
		return ph.From
	}
}

// PhaseSpan returns the total duration of a phase list.
func PhaseSpan(phases []LoadPhase) sim.Duration {
	var total sim.Duration
	for _, ph := range phases {
		total += ph.Duration
	}
	return total
}

// PhaseScaleAt evaluates the active phase's rate multiplier at offset t
// from scenario start. Before the first phase the multiplier is 1; after
// the last phase it holds the final phase's end value. Phases without a
// positive duration contribute no time and are skipped. An empty (or
// all-zero-duration) phase list always yields 1.
func PhaseScaleAt(phases []LoadPhase, t sim.Duration) float64 {
	var start sim.Duration
	for _, ph := range phases {
		if ph.Duration <= 0 {
			continue
		}
		end := start + ph.Duration
		if t < end {
			return ph.scaleAt(float64(t-start)/float64(ph.Duration), t-start)
		}
		start = end
	}
	for i := len(phases) - 1; i >= 0; i-- {
		if ph := phases[i]; ph.Duration > 0 {
			return ph.scaleAt(1, ph.Duration)
		}
	}
	return 1
}

// groups lowers the scenario onto its client groups: explicit Groups win;
// otherwise the flat fields become a single implicit group carrying the
// exact same knobs, so pre-redesign scenarios replay byte-identically.
func (s Scenario) groups() []ClientGroup {
	if len(s.Groups) > 0 {
		return s.Groups
	}
	return []ClientGroup{{
		Name:              s.Name,
		Clients:           s.Clients,
		Workload:          s.Workload,
		RequestsPerClient: s.RequestsPerClient,
		Rate:              s.Rate,
		BatchSize:         s.BatchSize,
		Window:            s.Window,
	}}
}

// runOptionsFor builds the ycsb options for client clientIdx (global
// index across groups) of group g. The implicit lowered group produces
// exactly the options the flat path always built.
func (s Scenario) runOptionsFor(g ClientGroup, table uint64, clientIdx int) ycsb.RunOptions {
	opts := ycsb.RunOptions{
		Table:    table,
		Requests: g.RequestsPerClient,
		Rate:     g.Rate,
		Seed:     s.Seed + int64(clientIdx)*7919,
		Warmup:   g.Warmup,
	}
	// The resolved arrival mode is authoritative: only its knobs are
	// forwarded, so a group declared closed never silently batches and a
	// group declared batched without a batch size fails loudly.
	switch g.mode() {
	case ArrivalOpen:
		opts.OpenLoop = true
	case ArrivalBatched:
		if g.BatchSize < 2 {
			panic(fmt.Sprintf("core: batched group %q needs BatchSize > 1", g.Name))
		}
		opts.BatchSize = g.BatchSize
	case ArrivalWindowed:
		if g.Window < 2 {
			panic(fmt.Sprintf("core: windowed group %q needs Window > 1", g.Name))
		}
		opts.Window = g.Window
	}
	// A group without a request budget is bounded by its stop time,
	// defaulting to the end of the phase schedule. (An open-loop group
	// with neither is rejected by ycsb with a clear panic.)
	stop := g.Stop
	if stop == 0 && g.RequestsPerClient <= 0 {
		stop = PhaseSpan(s.Phases)
	}
	if stop > 0 {
		opts.Stop = sim.Time(stop)
	}
	if len(s.Phases) > 0 && g.Rate > 0 {
		phases := s.Phases
		base := g.Rate
		opts.RateFunc = func(now sim.Time) float64 {
			return base * PhaseScaleAt(phases, sim.Duration(now))
		}
	}
	return opts
}

// GroupResult is one client group's share of a run's measurements.
// Joules are attributed activity-proportionally: for every completed
// second the cluster's energy is split across groups by their share of
// delivered operations, so an idle tenant is not billed for a busy one.
type GroupResult struct {
	Group   string
	Arrival string
	Clients int

	TotalOps   int64
	Throughput float64 // ops/s over the group's active seconds

	ReadLatency  *metrics.Histogram
	WriteLatency *metrics.Histogram

	Timeouts int64
	Failures int64

	Joules      float64 // activity-proportional share of cluster energy
	OpsPerJoule float64
}

// PhaseResult is one load phase's slice of the run, second-aligned.
type PhaseResult struct {
	Phase string
	Shape string

	StartSec, EndSec int // covered seconds [StartSec, EndSec)

	OfferedScale float64 // mean rate multiplier across the phase

	Ops               int64
	Throughput        float64 // delivered ops/s across the phase
	AvgPowerPerServer float64
	Joules            float64
	OpsPerJoule       float64
}

// buildGroupResults aggregates per-group breakdowns after a run.
// groupOf[i] is the group index of client i.
func buildGroupResults(cl *Cluster, groups []ClientGroup, groupOf []int, seriesEnd int) []GroupResult {
	out := make([]GroupResult, len(groups))
	opsBySec := make([]*metrics.Series, len(groups))
	for gi, g := range groups {
		out[gi] = GroupResult{
			Group:        g.Name,
			Arrival:      g.mode().String(),
			Clients:      g.Clients,
			ReadLatency:  metrics.NewHistogram(),
			WriteLatency: metrics.NewHistogram(),
		}
		opsBySec[gi] = &metrics.Series{}
	}
	for i, c := range cl.Clients {
		gi := groupOf[i]
		st := c.Stats()
		out[gi].TotalOps += st.Ops.Value()
		out[gi].Timeouts += st.Timeouts.Value()
		out[gi].Failures += st.Failures.Value()
		out[gi].ReadLatency.Merge(st.ReadLatency)
		out[gi].WriteLatency.Merge(st.WriteLatency)
		for k := 0; k < st.OpsBySecond.Len(); k++ {
			opsBySec[gi].Add(k, st.OpsBySecond.At(k))
		}
	}

	// Cluster-wide watts and delivered ops per second for attribution.
	watts := make([]float64, seriesEnd)
	totals := make([]float64, seriesEnd)
	for k := 0; k < seriesEnd; k++ {
		for _, pdu := range cl.PDUs {
			watts[k] += pdu.WattsAt(k)
		}
		for _, series := range opsBySec {
			totals[k] += series.At(k)
		}
	}

	for gi := range out {
		g := &out[gi]
		series := opsBySec[gi]
		first, last := -1, -1
		for k := 0; k < series.Len(); k++ {
			if series.At(k) > 0 {
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		if first >= 0 {
			g.Throughput = float64(g.TotalOps) / float64(last-first+1)
		}
		for k := 0; k < seriesEnd; k++ {
			if totals[k] <= 0 {
				continue
			}
			g.Joules += watts[k] * series.At(k) / totals[k]
		}
		if g.Joules > 0 {
			g.OpsPerJoule = float64(g.TotalOps) / g.Joules
		}
	}
	return out
}

// buildPhaseResults slices the run along its load phases. Phase
// boundaries are truncated to whole seconds (the PDU sampling grain), so
// phase durations should be multiples of a second for clean attribution.
func buildPhaseResults(s Scenario, cl *Cluster, seriesEnd int) []PhaseResult {
	if len(s.Phases) == 0 {
		return nil
	}
	// Delivered ops per second across all clients.
	var ops metrics.Series
	for _, c := range cl.Clients {
		st := c.Stats()
		for k := 0; k < st.OpsBySecond.Len(); k++ {
			ops.Add(k, st.OpsBySecond.At(k))
		}
	}
	out := make([]PhaseResult, 0, len(s.Phases))
	var cursor sim.Duration
	for _, ph := range s.Phases {
		from := int(int64(cursor) / int64(sim.Second))
		cursor += ph.Duration
		to := int(int64(cursor) / int64(sim.Second))
		if to > seriesEnd {
			to = seriesEnd
		}
		pr := PhaseResult{
			Phase:    ph.Name,
			Shape:    ph.Shape.String(),
			StartSec: from,
			EndSec:   to,
		}
		if to <= from {
			out = append(out, pr)
			continue
		}
		// Mean offered multiplier: sample the shape at second midpoints.
		scaleSum := 0.0
		for k := from; k < to; k++ {
			t := sim.Duration(k)*sim.Second + sim.Second/2
			scaleSum += PhaseScaleAt(s.Phases, t)
		}
		pr.OfferedScale = scaleSum / float64(to-from)
		pr.Ops = int64(ops.Sum(from, to))
		pr.Throughput = float64(pr.Ops) / float64(to-from)
		rep := cl.EnergyReport(from, to, pr.Ops)
		pr.AvgPowerPerServer = rep.MeanNodeWatts()
		pr.Joules = rep.TotalJoules
		pr.OpsPerJoule = rep.EnergyEfficiency()
		out = append(out, pr)
	}
	return out
}
