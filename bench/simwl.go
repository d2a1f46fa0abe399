package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"ramcloud/internal/core"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// simSpec is one workload over the deterministic simulator: a fixed set
// of cells run through the scenario pool (core.NewRunner(0).RunAll) at
// the default -j and -lanes, with the memo reset before each repetition.
// All timing is HOST time: kops is simulated client ops completed per
// host wall-second.
type simSpec struct {
	name  string
	mix   ycsb.Workload // the YCSB mix the isolated ladder rungs replay
	reps  int
	cells func(seed int64, scale float64) []core.Scenario
	warm  func(seed int64, scale float64) core.Scenario
}

// anchor is one of the paper's measurements already pinned by
// calibration_test.go, recomputed from this workload's own cells.
type anchor struct {
	name  string
	paper float64
	got   func(byName map[string]*core.Result) float64
}

// scaleReq shrinks a per-client request count for the tests' tiny cells.
func scaleReq(n int, scale float64) int { return max(int(float64(n)*scale), 10) }

// scaleRecs shrinks a dataset for the tests' tiny cells; measurements
// (scale 1) keep the paper-calibrated sizes.
func scaleRecs(n int, scale float64) int {
	if scale < 1 {
		return n / 50
	}
	return n
}

func readCell(name string, servers, clients, recs, reqs int, seed int64) core.Scenario {
	return core.Scenario{Name: name, Servers: servers, Clients: clients,
		Workload: ycsb.WorkloadC(recs, recordSize), RequestsPerClient: reqs, Seed: seed}
}

func updateCell(name string, servers, clients, rf, recs, reqs int, seed int64) core.Scenario {
	return core.Scenario{Name: name, Servers: servers, Clients: clients, RF: rf,
		Workload: ycsb.WorkloadA(recs, recordSize), RequestsPerClient: reqs, Seed: seed}
}

func recoveryCell(name string, rf int, recs int, seed int64) core.Scenario {
	return core.Scenario{Name: name, Servers: 9, RF: rf,
		Workload:  ycsb.Workload{RecordCount: recs, RecordSize: recordSize},
		KillAfter: 5 * sim.Second, KillTarget: 4, IdleSeconds: 3, Seed: seed}
}

// Cells are listed longest first: the pool hands them out in order, and
// the slowest cell bounds what -j can give.
var simSpecs = []simSpec{
	{
		// Read-only, RF 0: the simulator's hot loop (sim → simnet → rpc →
		// server read path → client) with no replication or disk, and the
		// only lane-eligible cells.
		name: "sim-read", mix: ycsb.WorkloadC(records, recordSize), reps: 3,
		cells: func(seed int64, k float64) []core.Scenario {
			return []core.Scenario{
				readCell("c-10s-30c", 10, 30, scaleRecs(100_000, k), scaleReq(20_000, k), seed),
				readCell("c-1s-30c", 1, 30, scaleRecs(50_000, k), scaleReq(15_000, k), seed),
				readCell("c-10s-10c", 10, 10, scaleRecs(100_000, k), scaleReq(20_000, k), seed),
				readCell("c-1s-1c", 1, 1, scaleRecs(50_000, k), scaleReq(40_000, k), seed),
			}
		},
		warm: func(seed int64, k float64) core.Scenario {
			return readCell("warm-up", 10, 10, scaleRecs(100_000, k), warmupOps/10, seed)
		},
	},
	{
		// Updates, replication and recovery: host cost lives in the master's
		// log head, backup scatter, simdisk and coordinator recovery, not in
		// the engine. None of it is lane-eligible.
		name: "sim-repl", mix: ycsb.WorkloadA(records, recordSize), reps: 3,
		cells: func(seed int64, k float64) []core.Scenario {
			recs := scaleRecs(100_000, k)
			return []core.Scenario{
				updateCell("a-10s-90c", 10, 90, 0, recs, scaleReq(4_000, k), seed),
				recoveryCell("rec-9s-rf4", 4, scaleRecs(300_000, k), seed),
				updateCell("a-20s-10c-rf4", 20, 10, 4, recs, scaleReq(5_000, k), seed),
				updateCell("a-10s-10c", 10, 10, 0, recs, scaleReq(8_000, k), seed),
				updateCell("a-20s-10c-rf1", 20, 10, 1, recs, scaleReq(5_000, k), seed),
				recoveryCell("rec-9s-rf1", 1, scaleRecs(300_000, k), seed),
			}
		},
		warm: func(seed int64, k float64) core.Scenario {
			return updateCell("warm-up", 10, 10, 0, scaleRecs(100_000, k), warmupOps/10, seed)
		},
	},
}

var simAnchors = map[string][]anchor{
	"sim-read": {
		{"read-1s-30c-ops", 372_000, func(r map[string]*core.Result) float64 { return r["c-1s-30c"].Throughput }},
		{"read-10s-10c-ops", 236_000, func(r map[string]*core.Result) float64 { return r["c-10s-10c"].Throughput }},
		{"cpu-1c-pct", 49.8, func(r map[string]*core.Result) float64 { return r["c-1s-1c"].CPUMax * 100 }},
		{"power-1c-w", 92, func(r map[string]*core.Result) float64 { return r["c-1s-1c"].AvgPowerPerServer }},
	},
	"sim-repl": {
		{"update-10c-ops", 98_000, func(r map[string]*core.Result) float64 { return r["a-10s-10c"].Throughput }},
		{"update-90c-ops", 64_000, func(r map[string]*core.Result) float64 { return r["a-10s-90c"].Throughput }},
		{"rf1-rf4-drop-pct", 45, func(r map[string]*core.Result) float64 {
			return 100 * (1 - r["a-20s-10c-rf4"].Throughput/r["a-20s-10c-rf1"].Throughput)
		}},
	},
}

// scalars is the part of a core.Result compared between repetitions: the
// same cell at the same seed must reproduce every one exactly.
type scalars struct {
	TotalOps                                      int64
	Duration                                      sim.Duration
	Throughput, AvgPower, TotalJoules, OpsPerJoul float64
	CPUMin, CPUMax                                float64
	Timeouts, Failures, Retries                   int64
	RecoveryTime, DetectTime                      sim.Duration
	Recovered, RecoveryTimedOut, Crashed          bool
	CleanerPasses, CleanerFreed                   int64
	ReadP50, ReadP99, WriteP50, WriteP99          int64
}

func scalarsOf(r *core.Result) scalars {
	return scalars{
		TotalOps: r.TotalOps, Duration: r.Duration, Throughput: r.Throughput,
		AvgPower: r.AvgPowerPerServer, TotalJoules: r.TotalJoules, OpsPerJoul: r.OpsPerJoule,
		CPUMin: r.CPUMin, CPUMax: r.CPUMax,
		Timeouts: r.Timeouts, Failures: r.Failures, Retries: r.Retries,
		RecoveryTime: r.RecoveryTime, DetectTime: r.DetectTime,
		Recovered: r.Recovered, RecoveryTimedOut: r.RecoveryTimedOut, Crashed: r.Crashed,
		CleanerPasses: r.CleanerPasses, CleanerFreed: r.CleanerFreed,
		ReadP50: r.ReadLatency.Quantile(0.5), ReadP99: r.ReadLatency.Quantile(0.99),
		WriteP50: r.WriteLatency.Quantile(0.5), WriteP99: r.WriteLatency.Quantile(0.99),
	}
}

// checkCell verifies one finished cell against its scenario and returns
// the reasons it fails (none for a good cell).
func checkCell(s core.Scenario, r *core.Result) []string {
	var bad []string
	if r.Failures > 0 {
		bad = append(bad, fmt.Sprintf("%d failed client ops", r.Failures))
	}
	if r.Crashed {
		bad = append(bad, "crashed (deadline exceeded)")
	}
	if want := int64(s.Clients) * int64(s.RequestsPerClient); r.TotalOps != want {
		bad = append(bad, fmt.Sprintf("completed %d ops, want %d", r.TotalOps, want))
	}
	if s.KillAfter > 0 && !r.Recovered {
		bad = append(bad, "killed server never recovered")
	}
	return bad
}

// simRep is one repetition of a sim workload.
type simRep struct {
	setups  []float64 // seconds each: memo reset and one warm-up cell
	win     *window
	ops     int64
	results []*core.Result
}

func runSimRep(spec simSpec, cells []core.Scenario, seed int64, scale float64) simRep {
	var rep simRep
	for i := 0; i < setupsPerRep; i++ {
		settleHeap()
		t0 := time.Now()
		core.ResetMemo()
		core.Run(spec.warm(seed, scale))
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	rep.win = openWindow()
	rep.results = core.NewRunner(0).RunAll(cells)
	rep.win.close()
	for _, r := range rep.results {
		rep.ops += r.TotalOps
	}
	return rep
}

// paperErr recomputes the workload's anchors from byName and returns the
// per-anchor and mean absolute relative error, in percent.
func paperErr(workload string, byName map[string]*core.Result) (perAnchor map[string]float64, mean float64) {
	perAnchor = make(map[string]float64)
	for _, a := range simAnchors[workload] {
		e := 100 * math.Abs(a.got(byName)-a.paper) / a.paper
		perAnchor[a.name] = e
		mean += e
	}
	if n := len(perAnchor); n > 0 {
		mean /= float64(n)
	}
	return perAnchor, mean
}

// simFailures returns one reason per cell that fails its own checks or
// whose scalar results differ from the first repetition's.
func simFailures(cells []core.Scenario, reps []simRep) (reasons []string) {
	for ri, rep := range reps {
		for ci, r := range rep.results {
			bad := checkCell(cells[ci], r)
			if ri > 0 && !reflect.DeepEqual(scalarsOf(r), scalarsOf(reps[0].results[ci])) {
				bad = append(bad, "result differs from the first repetition's")
			}
			if len(bad) > 0 {
				reasons = append(reasons, fmt.Sprintf("rep %d cell %s: %v", ri, cells[ci].Name, bad))
			}
		}
	}
	return reasons
}
