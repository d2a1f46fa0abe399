package core

import (
	"fmt"

	"ramcloud/internal/sim"
)

// This file registers the open-loop latency-vs-load study the ROADMAP
// names as the complement to the closed-loop Table II: offered load is
// swept from a light trough past the single-server saturation point with
// Poisson arrivals, so measured latency includes the queueing delay a
// closed loop hides (its clients self-throttle instead of queueing). The
// rendered curves are the classic hockey stick: flat service-time p50,
// p99 bending upward near the knee, then queueing blow-up past capacity —
// the methodology of the workload sweeps in Niemann et al.'s
// energy-vs-performance study, with energy per op reported across the
// same sweep. The sweep is a 3x12 scenario grid built for the parallel
// Runner: every cell is enumerated by latLoadGrid, so a prewarmed render
// runs the whole study concurrently.

func init() {
	Register(Experiment{ID: "latload", Order: 290, Title: "Extension: open-loop latency vs offered load", Setup: "1 server, open-loop Poisson clients, A/B/C swept from 0.1x capacity past saturation", Run: runLatLoad, Scenarios: latLoadGrid})
}

// latLoadSweep is one workload's sweep configuration. Capacity is the
// nominal single-server saturation throughput (aggregate ops/s, measured
// closed-loop at seed 42): the write path's quadratic log-head contention
// caps A well below the read-only dispatch ceiling. Client counts differ
// because each client's issue loop serializes behind its per-op CPU
// overhead (~33 us reads): C needs 90 generators to push offered load
// past the 380 Kop/s dispatch ceiling, while A's 8 Kop/s write knee is
// reachable with 30. Fractions cross each knee decisively: B's write
// path is bistable just above its knee (a borderline arrival sequence
// may or may not tip it into the contention collapse within the window),
// so its sweep jumps from the last stable point straight into the
// firmly-collapsed region instead of sampling the boundary.
type latLoadSweep struct {
	wl        string
	clients   int
	capacity  float64
	fractions []float64
	// windowMult stretches the issuing window: A's capacity is three
	// orders below C's, so its trough cells see too few operations for a
	// stable p99 tail in the base window; a longer window costs nothing
	// there and keeps the rendered curve monotone.
	windowMult int
}

var latLoadSweeps = []latLoadSweep{
	{wl: "A", clients: 30, capacity: 8_000, windowMult: 4,
		fractions: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5}},
	{wl: "B", clients: 30, capacity: 210_000, windowMult: 1,
		fractions: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.1, 1.2, 1.35, 1.5}},
	{wl: "C", clients: 90, capacity: 380_000, windowMult: 1,
		fractions: []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5}},
}

// latLoadSeconds is the per-cell issuing window; Options.Scale stretches
// it (the rates themselves must not scale or the knee would move).
func latLoadSeconds(o Options) int {
	secs := int(3*o.Scale + 0.5)
	if secs < 2 {
		secs = 2
	}
	return secs
}

func latLoadScenario(o Options, sw latLoadSweep, frac float64) Scenario {
	return Scenario{
		Name:    "latload",
		Profile: o.Profile,
		Servers: 1,
		Seed:    o.Seed,
		Groups: []ClientGroup{{
			Name:     "latload-" + sw.wl,
			Clients:  sw.clients,
			Workload: workloadFor(sw.wl, 100_000, 1024),
			Arrival:  ArrivalOpen,
			Rate:     sw.capacity * frac / float64(sw.clients),
			Stop:     sim.Duration(latLoadSeconds(o)*sw.windowMult) * sim.Second,
			Warmup:   true,
		}},
	}
}

func latLoadGrid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, sw := range latLoadSweeps {
		for _, frac := range sw.fractions {
			out = append(out, latLoadScenario(o, sw, frac))
		}
	}
	return out
}

func runLatLoad(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "latload",
		Title: "Open-loop latency vs offered load (hockey-stick curves)",
		Setup: "1 server, RF 0, open-loop Poisson clients, 100K records; per-sweep client count and issuing window in each caption"}

	for _, sw := range latLoadSweeps {
		t := Table{
			Caption: fmt.Sprintf("workload %s, %d clients, %ds window per cell (nominal capacity %s)",
				sw.wl, sw.clients, latLoadSeconds(o)*sw.windowMult, kops(sw.capacity)),
			Header: []string{"offered x", "offered", "delivered", "p50 read us", "p99 read us", "p99 write us", "W/server", "mJ/op"},
		}
		var kneeFrac float64
		var p99AtTrough, p99AtPeak float64
		for i, frac := range sw.fractions {
			r := runMemo(latLoadScenario(o, sw, frac))
			offered := sw.capacity * frac
			p99 := float64(r.ReadLatency.Quantile(0.99)) / 1000
			wp99 := "-"
			if r.WriteLatency.Count() > 0 {
				wp99 = fmt.Sprintf("%.1f", float64(r.WriteLatency.Quantile(0.99))/1000)
			}
			mJ := "-"
			if r.OpsPerJoule > 0 {
				mJ = fmt.Sprintf("%.2f", 1000/r.OpsPerJoule)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", frac),
				kops(offered),
				kops(r.Throughput),
				fmt.Sprintf("%.1f", float64(r.ReadLatency.Quantile(0.50))/1000),
				fmt.Sprintf("%.1f", p99),
				wp99,
				fmt.Sprintf("%.1f", r.AvgPowerPerServer),
				mJ,
			})
			if i == 0 {
				p99AtTrough = p99
			}
			p99AtPeak = p99
			// The knee: first offered fraction whose p99 exceeds 10x the
			// trough's (queueing departs from the flat service-time floor).
			if kneeFrac == 0 && i > 0 && p99AtTrough > 0 && p99 > 10*p99AtTrough {
				kneeFrac = frac
			}
		}
		res.Tables = append(res.Tables, t)
		if kneeFrac > 0 && p99AtTrough > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"workload %s: p99 knee at %.2fx capacity; %.0fx p99 inflation from trough to %.1fx (%.0fus -> %.0fus)",
				sw.wl, kneeFrac, p99AtPeak/p99AtTrough, sw.fractions[len(sw.fractions)-1], p99AtTrough, p99AtPeak))
		}
	}
	res.Notes = append(res.Notes,
		"open-loop Poisson arrivals queue when the server saturates (latency includes queueing delay); the closed-loop Table II instead self-throttles at the same point, reporting capacity but hiding the latency cliff",
		"energy per op mirrors the paper's non-proportionality: mJ/op is highest at the trough (idle watts spread over few ops) and lowest just below the knee")
	return res
}
