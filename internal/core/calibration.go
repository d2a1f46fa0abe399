// Package core is the characterization engine — the paper's contribution.
// It assembles simulated Grid'5000 clusters, runs the paper's measurement
// scenarios on them (YCSB workloads, replication sweeps, crash-recovery
// drills), and regenerates every table and figure of the evaluation.
package core

import (
	"ramcloud/internal/client"
	"ramcloud/internal/coordinator"
	"ramcloud/internal/energy"
	"ramcloud/internal/machine"
	"ramcloud/internal/server"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
)

// Profile bundles every calibrated constant that substitutes for the
// physical testbed. Each value is fitted to evidence in the paper:
//
//   - Power: P = 61 + 62*cpu ( +5*disk +3*nic ) watts, fitted to
//     (49.8% CPU, 92 W) and (98.4% CPU, 122 W) from Fig. 1b / Table I.
//   - Dispatch cost ~2.4 us: single-server read ceiling ~372 Kop/s.
//   - Client read overhead ~30 us: per-client closed-loop read rate of
//     ~23-28 Kop/s (Table II workload C).
//   - Client update overhead ~95 us and write-path contention: Table II
//     workload A (98K -> 106K -> 64K collapse).
//   - Worker spin 400 us + connection-affine worker queues: Table I CPU
//     floors (25% idle, ~50% at 1 client, ~75% at 2, saturating near
//     100%).
//   - Disk 130/110 MB/s + 6 ms alternation seek: Figs. 11-12 recovery
//     behaviour.
//   - Infiniband-20G: 2.3 us one-way, 2.3 GB/s per NIC.
type Profile struct {
	Machine     machine.Spec
	Power       energy.PowerModel
	Net         simnet.Config
	Disk        simdisk.Config
	Server      server.Config
	Client      client.Config
	Coordinator coordinator.Config
}

// DefaultProfile returns the Grid'5000 Nancy calibration used for every
// experiment, and so for the committed full-scale rendering in
// cmd/rcbench/testdata/render-1.txt.
func DefaultProfile() Profile {
	return Profile{
		Machine:     machine.Grid5000Nancy(),
		Power:       energy.DefaultPowerModel(),
		Net:         simnet.DefaultConfig(),
		Disk:        simdisk.DefaultConfig(),
		Server:      server.DefaultConfig(),
		Client:      client.DefaultConfig(),
		Coordinator: coordinator.DefaultConfig(),
	}
}
