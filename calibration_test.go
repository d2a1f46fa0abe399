package ramcloud

import (
	"testing"

	"ramcloud/internal/core"
	"ramcloud/internal/ycsb"
)

// These tests pin the calibrated model to the paper's anchor measurements.
// Tolerances are generous (the paper itself averages 5 noisy runs) but
// tight enough that a regression in the threading, replication or power
// models fails the suite. They use reduced request counts for speed; the
// full-scale numbers, every experiment at -scale 1 -seed 42, are committed
// in cmd/rcbench/testdata/render-1.txt (and at -scale 0.5 beside it), and
// CI renders both afresh and diffs.

func runCal(t *testing.T, servers, clients, rf int, wl ycsb.Workload, reqs int) *core.Result {
	t.Helper()
	return core.Run(core.Scenario{
		Name:              "cal",
		Servers:           servers,
		Clients:           clients,
		RF:                rf,
		Workload:          wl,
		RequestsPerClient: reqs,
		Seed:              42,
	})
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.1f, want %.1f +/- %.0f%%", name, got, want, tol*100)
	}
}

func TestCalSingleClientCPUFloor(t *testing.T) {
	// Paper Table I: one server, one client -> ~49.8% CPU (dispatch core
	// + one spin-hot worker); idle floor is 25%.
	r := runCal(t, 1, 1, 0, ycsb.WorkloadC(50_000, 1024), 40_000)
	within(t, "cpu at 1 client", r.CPUMax*100, 49.8, 0.08)
	within(t, "power at 1 client (W)", r.AvgPowerPerServer, 92, 0.05)
}

func TestCalSingleServerReadCeiling(t *testing.T) {
	// Paper Fig. 1a: one server saturates around 372 Kop/s at 30 clients.
	r := runCal(t, 1, 30, 0, ycsb.WorkloadC(50_000, 1024), 15_000)
	within(t, "single-server ceiling (op/s)", r.Throughput, 372_000, 0.12)
}

func TestCalPerClientReadRate(t *testing.T) {
	// Paper Table II, workload C at 10 clients on 10 servers: 236 Kop/s.
	r := runCal(t, 10, 10, 0, ycsb.WorkloadC(100_000, 1024), 20_000)
	within(t, "C @ 10 clients (op/s)", r.Throughput, 236_000, 0.10)
}

func TestCalUpdateHeavyCollapse(t *testing.T) {
	// Paper Table II, workload A: ~98K at 10 clients, collapsing to ~64K
	// at 90 clients; C is then ~31x A.
	a10 := runCal(t, 10, 10, 0, ycsb.WorkloadA(100_000, 1024), 8_000)
	a90 := runCal(t, 10, 90, 0, ycsb.WorkloadA(100_000, 1024), 4_000)
	within(t, "A @ 10 clients (op/s)", a10.Throughput, 98_000, 0.15)
	within(t, "A @ 90 clients (op/s)", a90.Throughput, 64_000, 0.20)
	if a90.Throughput >= a10.Throughput {
		t.Error("workload A must degrade between 10 and 90 clients")
	}
}

func TestCalReplicationCostsThroughput(t *testing.T) {
	// Paper Fig. 5 @ 10 clients on 20 servers: RF 1 -> RF 4 loses ~45%.
	rf1 := runCal(t, 20, 10, 1, ycsb.WorkloadA(100_000, 1024), 5_000)
	rf4 := runCal(t, 20, 10, 4, ycsb.WorkloadA(100_000, 1024), 5_000)
	if rf4.Throughput >= rf1.Throughput {
		t.Fatalf("RF4 (%.0f) should be slower than RF1 (%.0f)", rf4.Throughput, rf1.Throughput)
	}
	drop := 1 - rf4.Throughput/rf1.Throughput
	if drop < 0.15 || drop > 0.70 {
		t.Errorf("RF1->RF4 drop = %.0f%%, want in [15%%, 70%%] (paper: 45%%)", drop*100)
	}
}

func TestCalRecoveryGrowsWithRF(t *testing.T) {
	// Paper Fig. 11a: recovery time grows with the replication factor.
	recTime := func(rf int) float64 {
		r := core.Run(core.Scenario{
			Name:        "cal-rec",
			Servers:     9,
			Clients:     0,
			RF:          rf,
			Workload:    ycsb.Workload{RecordCount: 300_000, RecordSize: 1024},
			KillAfter:   5_000_000_000,
			KillTarget:  4,
			IdleSeconds: 3,
			Seed:        42,
		})
		if !r.Recovered {
			t.Fatalf("rf=%d never recovered", rf)
		}
		return r.RecoveryTime.Seconds()
	}
	t1, t4 := recTime(1), recTime(4)
	if t4 <= t1*1.15 {
		t.Errorf("recovery time RF4 (%.2fs) should exceed RF1 (%.2fs) by >15%%", t4, t1)
	}
}

func TestCalIdlePowerFloor(t *testing.T) {
	// A running but idle server burns one polling core: ~76-77W.
	r := core.Run(core.Scenario{
		Name: "cal-idle", Servers: 3, Clients: 0,
		Workload:    ycsb.Workload{RecordCount: 20_000, RecordSize: 1024},
		IdleSeconds: 5, Seed: 42,
	})
	within(t, "idle power (W)", r.AvgPowerPerServer, 76.5, 0.04)
	within(t, "idle CPU (%)", r.CPUMax*100, 25, 0.05)
}
