// Command rcload is a YCSB-style load driver for the simulated cluster,
// printing output in the familiar YCSB format. (A live rccoord/rcserver
// cluster is driven by `rcclient ... ycsb`.)
//
// Example:
//
//	rcload -workload a -records 100000 -ops 10000 -clients 30 -servers 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ramcloud/internal/core"
	"ramcloud/internal/ycsb"
)

func main() {
	var (
		workload  = flag.String("workload", "a", "YCSB core workload: a, b or c")
		records   = flag.Int("records", 100_000, "record count (1 KB values)")
		ops       = flag.Int("ops", 10_000, "operations per client")
		clients   = flag.Int("clients", 10, "concurrent clients")
		servers   = flag.Int("servers", 10, "storage servers")
		rf        = flag.Int("rf", 0, "replication factor")
		target    = flag.Float64("target", 0, "per-client target ops/s (0 = max)")
		seed      = flag.Int64("seed", 42, "simulation / key-choice seed")
		valueSize = flag.Int("size", 1024, "value bytes per record")
	)
	flag.Parse()

	w, err := ycsb.ByName(*workload, *records, *valueSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcload: %v\n", err)
		os.Exit(2)
	}
	wallStart := time.Now()
	res := core.Run(core.Scenario{
		Name:              "rcload",
		Servers:           *servers,
		Clients:           *clients,
		RF:                *rf,
		Workload:          w,
		RequestsPerClient: *ops,
		Rate:              *target,
		Seed:              *seed,
	})

	fmt.Printf("[OVERALL], RunTime(ms), %.0f\n", res.Duration.Seconds()*1000)
	fmt.Printf("[OVERALL], Throughput(ops/sec), %.1f\n", res.Throughput)
	fmt.Printf("[READ], Operations, %d\n", res.ReadLatency.Count())
	if res.ReadLatency.Count() > 0 {
		fmt.Printf("[READ], AverageLatency(us), %.1f\n", res.ReadLatency.Mean()/1000)
		fmt.Printf("[READ], 95thPercentileLatency(us), %.1f\n", float64(res.ReadLatency.Quantile(0.95))/1000)
		fmt.Printf("[READ], 99thPercentileLatency(us), %.1f\n", float64(res.ReadLatency.Quantile(0.99))/1000)
	}
	fmt.Printf("[UPDATE], Operations, %d\n", res.WriteLatency.Count())
	if res.WriteLatency.Count() > 0 {
		fmt.Printf("[UPDATE], AverageLatency(us), %.1f\n", res.WriteLatency.Mean()/1000)
		fmt.Printf("[UPDATE], 95thPercentileLatency(us), %.1f\n", float64(res.WriteLatency.Quantile(0.95))/1000)
		fmt.Printf("[UPDATE], 99thPercentileLatency(us), %.1f\n", float64(res.WriteLatency.Quantile(0.99))/1000)
	}
	fmt.Printf("[ENERGY], AveragePowerPerServer(W), %.1f\n", res.AvgPowerPerServer)
	fmt.Printf("[ENERGY], TotalEnergy(J), %.0f\n", res.TotalJoules)
	fmt.Printf("[ENERGY], Efficiency(ops/J), %.0f\n", res.OpsPerJoule)
	fmt.Printf("# simulated on %d servers in %.1fs wall clock\n", *servers, time.Since(wallStart).Seconds())
}
