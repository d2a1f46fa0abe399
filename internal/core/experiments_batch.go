package core

import (
	"fmt"
	"strconv"
)

// This file extends the characterization beyond the paper: the paper's
// closed-loop clients cap at ~23-37 Kop/s each (Finding: client-limited
// scaling in Fig. 1a), and real RAMCloud breaks that ceiling with
// MultiRead/MultiWrite batches and asynchronous RPCs. The sweep
// characterizes both levers — throughput AND energy per op vs batch size —
// in the spirit of LaKe (batched/pipelined request handling drives both
// speed and energy efficiency) and Niemann's observation that workload
// shape dominates the energy picture.

func init() {
	Register(Experiment{ID: "batch", Order: 260, Title: "Extension: multi-op batching and async pipelining", Setup: "10 servers, C and A, batch {1,4,16,64}, window {1,4,16}", Run: runBatchSweep, Scenarios: batchGrid})
}

var batchSizes = []int{1, 4, 16, 64}
var windowSizes = []int{1, 4, 16}

// batchScenario is one batched cell: 10 servers, 10 clients, like the
// Table II grid, but with clients batching BatchSize ops per RPC round.
func batchScenario(o Options, wl string, batch int) Scenario {
	s := Scenario{
		Name:              "batch",
		Profile:           o.Profile,
		Servers:           10,
		Clients:           10,
		RF:                0,
		Workload:          workloadFor(wl, 100_000, 1024),
		RequestsPerClient: o.requests(20_000),
		Seed:              o.Seed,
	}
	if batch > 1 {
		s.BatchSize = batch
	}
	return s
}

func batchCell(o Options, wl string, batch int) *Result {
	return runMemo(batchScenario(o, wl, batch))
}

// windowScenario is one pipelined cell: the same grid, async window
// instead of multi-op batching. The Name matches batchScenario so the
// window=1 / batch=1 baseline (identical scenarios) is memoized once per
// process.
func windowScenario(o Options, wl string, window int) Scenario {
	s := batchScenario(o, wl, 1)
	if window > 1 {
		s.Window = window
	}
	return s
}

func windowCell(o Options, wl string, window int) *Result {
	return runMemo(windowScenario(o, wl, window))
}

func batchGrid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, wl := range []string{"C", "A"} {
		for _, bs := range batchSizes {
			out = append(out, batchScenario(o, wl, bs))
		}
	}
	for _, win := range windowSizes {
		out = append(out, windowScenario(o, "C", win))
	}
	return out
}

func runBatchSweep(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "batch",
		Title: "Multi-op batching and async pipelining: throughput and energy per op",
		Setup: fmt.Sprintf("10 servers, 10 clients, RF 0, %d reqs/client", o.requests(20_000))}

	for _, wl := range []string{"C", "A"} {
		t := Table{
			Caption: fmt.Sprintf("workload %s vs batch size (MultiRead/MultiWrite)", wl),
			Header:  []string{"batch", "throughput", "speedup", "W/server", "op/J", "J/op (mJ)"},
		}
		base := batchCell(o, wl, 1).Throughput
		for _, bs := range batchSizes {
			r := batchCell(o, wl, bs)
			jPerOp := "-"
			if r.OpsPerJoule > 0 {
				jPerOp = fmt.Sprintf("%.3f", 1000/r.OpsPerJoule)
			}
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(bs), kops(r.Throughput),
				fmt.Sprintf("%.2fx", r.Throughput/base),
				fmt.Sprintf("%.1f", r.AvgPowerPerServer),
				fmt.Sprintf("%.0f", r.OpsPerJoule),
				jPerOp,
			})
		}
		res.Tables = append(res.Tables, t)
	}

	tw := Table{
		Caption: "workload C vs async window (pipelined closed loop)",
		Header:  []string{"window", "throughput", "speedup", "op/J"},
	}
	base := windowCell(o, "C", 1).Throughput
	for _, win := range windowSizes {
		r := windowCell(o, "C", win)
		tw.Rows = append(tw.Rows, []string{
			strconv.Itoa(win), kops(r.Throughput),
			fmt.Sprintf("%.2fx", r.Throughput/base),
			fmt.Sprintf("%.0f", r.OpsPerJoule),
		})
	}
	res.Tables = append(res.Tables, tw)

	c1 := batchCell(o, "C", 1)
	c16 := batchCell(o, "C", 16)
	if c1.Throughput > 0 && c16.OpsPerJoule > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"batch-16 reads: %.1fx throughput and %.1fx op/J vs per-op RPCs",
			c16.Throughput/c1.Throughput, c16.OpsPerJoule/c1.OpsPerJoule))
	}
	res.Notes = append(res.Notes,
		"batching amortizes client request generation, server dispatch and the log-head lock; energy per op falls because fixed node power is spread over more ops/s (paper Finding 1: power is non-proportional)")
	return res
}
