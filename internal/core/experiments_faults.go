package core

import (
	"fmt"

	"ramcloud/internal/sim"
)

// This file registers the two fault-injection studies riding on the
// FaultEvent schedule: faultload (kill + restart a loaded server and
// watch the cluster detect, recover and re-admit it) and lossy (sweep
// frontend packet loss and measure what the retry paths cost). Both use
// a hardened client profile — capped exponential backoff and a tight
// RPC timeout — because the defaults (1 s timeout, fixed 10 ms retry
// pause) date from a world where the only failure was a clean crash.

func init() {
	Register(Experiment{ID: "faultload", Order: 300, Title: "Extension: kill + restart under load", Setup: "5 servers, RF 2, 16 closed-loop clients, workload B; server 2 killed at 8s, restarted at 20s, run ends at 30s", Run: runFaultLoad, Scenarios: faultLoadGrid})
	Register(Experiment{ID: "lossy", Order: 310, Title: "Extension: goodput and retry cost under packet loss", Setup: "3 servers, RF 2, 12 closed-loop clients; loss injected on every frontend link (clients + coordinator)", Run: runLossy, Scenarios: lossyGrid})
}

// hardenedClient enables the capped-backoff retry policy, a timeout tight
// enough that a lost RPC costs milliseconds (not the legacy 1 s), and
// detector death enforcement: a false-positive declaration really kills
// its target, so chaos runs surface the cost instead of split-braining.
func hardenedClient(p Profile, rpcTimeout sim.Duration) Profile {
	p.Client.RPCTimeout = rpcTimeout
	p.Client.Backoff.Base = sim.Millisecond
	p.Client.Backoff.Cap = 100 * sim.Millisecond
	p.Client.Backoff.JitterFrac = 0.2
	p.Coordinator.EnforceDeath = true
	return p
}

// The faultload timeline is fixed in simulated time — Options.Scale must
// not stretch it, or the kill and restart would drift relative to the
// detector and recovery constants being measured.
const (
	faultLoadKillAt    = 8 * sim.Second
	faultLoadRestartAt = 20 * sim.Second
	faultLoadStop      = 30 * sim.Second
	faultLoadTarget    = 2
)

func faultLoadScenario(o Options) Scenario {
	return Scenario{
		Name:    "faultload",
		Profile: hardenedClient(o.Profile, 100*sim.Millisecond),
		Servers: 5,
		RF:      2,
		Seed:    o.Seed,
		Groups: []ClientGroup{{
			Name:     "faultload",
			Clients:  16,
			Workload: workloadFor("B", 100_000, 1024),
			Arrival:  ArrivalClosed,
			Stop:     faultLoadStop,
			Warmup:   true,
		}},
		// Constant unit phases carry no rate modulation (the group is an
		// unthrottled closed loop); they exist to slice the run into the
		// windows the table reports: steady state, the outage, and the
		// post-restart rebalance.
		Phases: []LoadPhase{
			{Name: "before", Duration: faultLoadKillAt, Shape: ShapeConstant, From: 1},
			{Name: "outage", Duration: faultLoadRestartAt - faultLoadKillAt, Shape: ShapeConstant, From: 1},
			{Name: "recovered", Duration: faultLoadStop - faultLoadRestartAt, Shape: ShapeConstant, From: 1},
		},
		Faults: []FaultEvent{
			{At: faultLoadKillAt, Kind: FaultKill, Target: faultLoadTarget},
			{At: faultLoadRestartAt, Kind: FaultRestart, Target: faultLoadTarget},
		},
	}
}

func faultLoadGrid(o Options) []Scenario {
	o = o.normalize()
	return []Scenario{faultLoadScenario(o)}
}

func runFaultLoad(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "faultload",
		Title: "Kill + restart a loaded server (detect -> recover -> rejoin)",
		Setup: "5 servers, RF 2, 16 closed-loop clients on workload B, 100K records; server 2 killed at 8s, restarted at 20s, clients stop at 30s"}

	r := runMemo(faultLoadScenario(o))

	win := Table{
		Caption: "per-window delivered load and power",
		Header:  []string{"window", "seconds", "ops", "Kop/s", "W/server", "mJ/op"},
	}
	for _, ph := range r.Phases {
		mJ := "-"
		if ph.OpsPerJoule > 0 {
			mJ = fmt.Sprintf("%.2f", 1000/ph.OpsPerJoule)
		}
		win.Rows = append(win.Rows, []string{
			ph.Phase,
			fmt.Sprintf("%d-%d", ph.StartSec, ph.EndSec),
			fmt.Sprintf("%d", ph.Ops),
			fmt.Sprintf("%.1f", ph.Throughput/1000),
			fmt.Sprintf("%.1f", ph.AvgPowerPerServer),
			mJ,
		})
	}
	res.Tables = append(res.Tables, win)

	rec := Table{
		Caption: "failure handling",
		Header:  []string{"detect ms", "recover ms", "rejoined", "tablets migrated", "timeouts", "retries", "p50 read us", "p99 read us"},
	}
	rejoined := "no"
	if r.Rejoined {
		rejoined = fmt.Sprintf("at %.1fs", sim.Duration(r.RejoinedAt).Seconds())
	}
	rec.Rows = append(rec.Rows, []string{
		fmt.Sprintf("%.0f", r.DetectTime.Seconds()*1000),
		fmt.Sprintf("%.0f", r.RecoveryTime.Seconds()*1000),
		rejoined,
		fmt.Sprintf("%d", r.TabletsMigrated),
		fmt.Sprintf("%d", r.Timeouts),
		fmt.Sprintf("%d", r.Retries),
		fmt.Sprintf("%.1f", float64(r.ReadLatency.Quantile(0.50))/1000),
		fmt.Sprintf("%.1f", float64(r.ReadLatency.Quantile(0.99))/1000),
	})
	res.Tables = append(res.Tables, rec)

	if r.Recovered && !r.RecoveryTimedOut {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"death detected %.0fms after the kill (3 missed 200ms pings) and the survivors replayed its log in %.0fms more",
			r.DetectTime.Seconds()*1000, (r.RecoveryTime-r.DetectTime).Seconds()*1000))
	}
	if r.Rejoined && r.TabletsMigrated > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"the restarted server re-enlisted empty and was rebalanced back to a fair share: %d tablets migrated in while clients kept running",
			r.TabletsMigrated))
	}
	if r.RecoveryTimedOut {
		res.Notes = append(res.Notes, "WARNING: recovery or rebalance did not complete within the controller budget")
	}
	return res
}

// lossySweep: loss fractions per workload. Dup rides along at a fifth of
// the loss rate so the duplicate-delivery paths get exercised too.
var (
	lossyWorkloads = []string{"A", "C"}
	lossyFractions = []float64{0, 0.005, 0.01, 0.02, 0.05}
)

func lossyScenario(o Options, wl string, loss float64) Scenario {
	s := Scenario{
		Name:              "lossy",
		Profile:           hardenedClient(o.Profile, 25*sim.Millisecond),
		Servers:           3,
		RF:                2,
		Clients:           12,
		Workload:          workloadFor(wl, 50_000, 1024),
		RequestsPerClient: o.requests(3000),
		Seed:              o.Seed,
	}
	if loss > 0 {
		// Target -1 = every frontend link (clients + coordinator), so both
		// the data path and the failure detector's pings ride lossy links.
		s.Faults = []FaultEvent{{
			At: sim.Millisecond, Kind: FaultLoss, Target: -1,
			Loss: loss, Dup: loss / 5,
		}}
	}
	return s
}

func lossyGrid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, wl := range lossyWorkloads {
		for _, loss := range lossyFractions {
			out = append(out, lossyScenario(o, wl, loss))
		}
	}
	return out
}

func runLossy(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "lossy",
		Title: "Goodput and retry amplification vs frontend packet loss",
		Setup: fmt.Sprintf("3 servers, RF 2, 12 closed-loop clients, %d ops/client, 50K records; loss + dup on every client and coordinator link, capped-backoff retries, 25ms RPC timeout", o.requests(3000))}

	for _, wl := range lossyWorkloads {
		t := Table{
			Caption: fmt.Sprintf("workload %s", wl),
			Header:  []string{"loss %", "goodput Kop/s", "retry amp", "timeouts", "dropped", "dup'd", "suspicions", "FP deaths", "p99 read us", "mJ/op"},
		}
		monotone := true
		var prevGoodput, baseGoodput, peakAmp float64
		fpBelowThreshold := int64(0)
		for i, loss := range lossyFractions {
			r := runMemo(lossyScenario(o, wl, loss))
			amp := 1.0
			if r.TotalOps > 0 {
				amp = 1 + float64(r.Timeouts+r.Retries)/float64(r.TotalOps)
			}
			mJ := "-"
			if r.OpsPerJoule > 0 {
				mJ = fmt.Sprintf("%.2f", 1000/r.OpsPerJoule)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", loss*100),
				fmt.Sprintf("%.1f", r.Throughput/1000),
				fmt.Sprintf("%.3f", amp),
				fmt.Sprintf("%d", r.Timeouts),
				fmt.Sprintf("%d", r.NetDroppedFault),
				fmt.Sprintf("%d", r.NetDuplicated),
				fmt.Sprintf("%d", r.Suspicions),
				fmt.Sprintf("%d", r.FalsePositiveDeaths),
				fmt.Sprintf("%.1f", float64(r.ReadLatency.Quantile(0.99))/1000),
				mJ,
			})
			if i == 0 {
				baseGoodput = r.Throughput
			} else if r.Throughput > prevGoodput {
				monotone = false
			}
			prevGoodput = r.Throughput
			if amp > peakAmp {
				peakAmp = amp
			}
			if loss <= 0.01 {
				fpBelowThreshold += r.FalsePositiveDeaths
			}
		}
		res.Tables = append(res.Tables, t)
		if monotone && baseGoodput > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"workload %s: goodput degrades monotonically, retaining %.0f%% at 5%% loss; peak retry amplification %.3fx",
				wl, 100*prevGoodput/baseGoodput, peakAmp))
		}
		if fpBelowThreshold == 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"workload %s: zero false-positive deaths at <=1%% loss — three consecutive ping misses at 1%% is a ~1e-5 event per window",
				wl))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"workload %s: WARNING: %d false-positive death(s) at <=1%% loss", wl, fpBelowThreshold))
		}
	}
	res.Notes = append(res.Notes,
		"every lost request or response costs the client a 25ms timeout plus capped exponential backoff; the closed loop converts that into the goodput slope",
		"the detector shares the lossy links: suspicions (missed pings) climb with loss, but declaring death takes 3 consecutive misses, so false positives stay rare until loss is extreme")
	return res
}
