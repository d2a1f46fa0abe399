package core

import (
	"fmt"
	"strconv"

	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// This file regenerates the replication study (Section VI): Figs. 5-8 and
// the throttling mitigation (Fig. 13).

func init() {
	Register(Experiment{ID: "fig5", Order: 90, Title: "Throughput vs replication factor, 20 servers", Setup: "update-heavy A, RF {1..4} x clients {10,30,60}", Run: runFig5, Scenarios: fig5Grid})
	Register(Experiment{ID: "fig6a", Order: 100, Title: "Throughput vs servers and RF, 60 clients", Setup: "A, servers {10..40} x RF {1..4}", Run: runFig6a, Scenarios: fig6Grid})
	Register(Experiment{ID: "fig6b", Order: 110, Title: "Total energy vs servers and RF, 60 clients", Setup: "same grid as fig6a", Run: runFig6b, Scenarios: fig6Grid})
	Register(Experiment{ID: "fig7", Order: 120, Title: "Average power vs RF, 40 servers, 60 clients", Setup: "A", Run: runFig7, Scenarios: fig7Grid})
	Register(Experiment{ID: "fig8", Order: 130, Title: "Energy efficiency vs RF, {20,30,40} servers", Setup: "A, 60 clients", Run: runFig8, Scenarios: fig8Grid})
	Register(Experiment{ID: "fig13", Order: 200, Title: "Throttled clients avoid collapse", Setup: "10 servers, RF 2, A, rate {200,500} op/s", Run: runFig13, Scenarios: fig13Grid})
	Register(Experiment{ID: "consistency", Order: 230, Title: "Ablation: replication communication (Sec. IX.B)", Setup: "20 servers, A, RF 3: sync RPC vs async RPC vs one-sided RDMA", Run: runConsistencyAblation, Scenarios: consistencyGrid})
	Register(Experiment{ID: "dist", Order: 250, Title: "Extension: request distributions (Sec. X)", Setup: "10 servers, uniform vs zipfian", Run: runDistributionStudy, Scenarios: distGrid})
}

func replScenario(o Options, servers, clients, rf int) Scenario {
	return Scenario{
		Name:              "repl",
		Profile:           o.Profile,
		Servers:           servers,
		Clients:           clients,
		RF:                rf,
		Workload:          ycsb.WorkloadA(100_000, 1024),
		RequestsPerClient: o.requests(10_000),
		Seed:              o.Seed,
		Deadline:          20 * sim.Minute,
	}
}

func replCell(o Options, servers, clients, rf int) *Result {
	return runMemo(replScenario(o, servers, clients, rf))
}

func fig5Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for rf := 1; rf <= 4; rf++ {
		for _, cl := range []int{10, 30, 60} {
			out = append(out, replScenario(o, 20, cl, rf))
		}
	}
	return out
}

func fig6Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, srv := range fig6Servers {
		for rf := 1; rf <= 4; rf++ {
			out = append(out, replScenario(o, srv, 60, rf))
		}
	}
	return out
}

func fig7Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for rf := 1; rf <= 4; rf++ {
		out = append(out, replScenario(o, 40, 60, rf))
	}
	return out
}

func fig8Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for rf := 1; rf <= 4; rf++ {
		for _, srv := range []int{20, 30, 40} {
			out = append(out, replScenario(o, srv, 60, rf))
		}
	}
	return out
}

func runFig5(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig5", Title: "Throughput vs RF (Kop/s), 20 servers, update-heavy",
		Setup: "paper / measured"}
	paper := map[int]map[int]string{
		10: {1: "78", 2: "65", 3: "55", 4: "43"},
		30: {1: "95", 2: "75", 3: "55", 4: "41"},
		60: {1: "115", 2: "90", 3: "65", 4: "50"},
	}
	t := Table{Header: []string{"rf", "10 clients", "30 clients", "60 clients"}}
	for rf := 1; rf <= 4; rf++ {
		row := []string{strconv.Itoa(rf)}
		for _, cl := range []int{10, 30, 60} {
			r := replCell(o, 20, cl, rf)
			row = append(row, paperVs(paper[cl][rf]+"K", kops(r.Throughput)))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	ten1 := replCell(o, 20, 10, 1).Throughput
	ten4 := replCell(o, 20, 10, 4).Throughput
	if ten1 > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"RF1->RF4 drop at 10 clients = %.0f%% (paper: 45%%)", 100*(1-ten4/ten1)))
	}
	return res
}

var fig6Servers = []int{10, 20, 30, 40}

func runFig6a(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig6a", Title: "Throughput vs servers and RF (Kop/s), 60 clients",
		Setup: "update-heavy A; paper reports 10-server RF>=3 cells as crashed"}
	paper := map[int]map[int]string{
		10: {1: "128", 2: "95", 3: "crash", 4: "crash"},
		20: {1: "165", 2: "120", 3: "85", 4: "60"},
		30: {1: "205", 2: "150", 3: "105", 4: "75"},
		40: {1: "237", 2: "170", 3: "120", 4: "85"},
	}
	t := Table{Header: []string{"servers", "RF1", "RF2", "RF3", "RF4"}}
	for _, srv := range fig6Servers {
		row := []string{strconv.Itoa(srv)}
		for rf := 1; rf <= 4; rf++ {
			r := replCell(o, srv, 60, rf)
			cell := kops(r.Throughput)
			if r.Crashed {
				cell = "crash"
			} else if r.Timeouts > 0 {
				cell += fmt.Sprintf(" (%d timeouts)", r.Timeouts)
			}
			row = append(row, paperVs(paper[srv][rf], cell))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: more servers relieve the replication contention; 10 servers cannot sustain RF>=3 at 60 clients")
	return res
}

func runFig6b(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig6b", Title: "Total energy vs servers and RF (KJ), 60 clients",
		Setup: "update-heavy A"}
	t := Table{Header: []string{"servers", "RF1", "RF2", "RF3", "RF4"}}
	for _, srv := range fig6Servers {
		row := []string{strconv.Itoa(srv)}
		for rf := 1; rf <= 4; rf++ {
			r := replCell(o, srv, 60, rf)
			if r.Crashed {
				row = append(row, "crash")
				continue
			}
			row = append(row, fmt.Sprintf("%.1fKJ", r.TotalJoules/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	twenty1 := replCell(o, 20, 60, 1).TotalJoules
	twenty4 := replCell(o, 20, 60, 4).TotalJoules
	if twenty1 > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"20 servers RF1->RF4 energy increase = %.0f%% (paper: 351%%, i.e. ~3.5x)",
			100*(twenty4/twenty1-1)))
	}
	return res
}

func runFig7(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig7", Title: "Average power per node vs RF (W), 40 servers, 60 clients",
		Setup: "update-heavy A; paper / measured"}
	paper := map[int]string{1: "103", 2: "108", 3: "112", 4: "115"}
	t := Table{Header: []string{"rf", "watts/node"}}
	for rf := 1; rf <= 4; rf++ {
		r := replCell(o, 40, 60, rf)
		t.Rows = append(t.Rows, []string{strconv.Itoa(rf),
			paperVs(paper[rf]+"W", fmt.Sprintf("%.1fW", r.AvgPowerPerServer))})
	}
	res.Tables = []Table{t}
	return res
}

func runFig8(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig8", Title: "Energy efficiency vs RF (Kop/J), 60 clients",
		Setup: "update-heavy A; paper / measured"}
	paper := map[int]map[int]string{
		20: {1: "1.5", 2: "1.1", 3: "0.8", 4: "0.6"},
		30: {1: "1.9", 2: "1.3", 3: "0.9", 4: "0.7"},
		40: {1: "2.3", 2: "1.5", 3: "1.0", 4: "0.75"},
	}
	t := Table{Header: []string{"rf", "20 servers", "30 servers", "40 servers"}}
	for rf := 1; rf <= 4; rf++ {
		row := []string{strconv.Itoa(rf)}
		for _, srv := range []int{20, 30, 40} {
			r := replCell(o, srv, 60, rf)
			// The paper's Fig. 8 metric is aggregated throughput divided
			// by the power of ONE node (their 20-server RF1 value of
			// ~1500 op/J reconciles exactly with Fig. 6a's 165 Kop/s over
			// Fig. 4a's ~105 W); cluster-wide ops/joule is r.OpsPerJoule.
			eff := r.Throughput / r.AvgPowerPerServer
			row = append(row, paperVs(paper[srv][rf], fmt.Sprintf("%.2f", eff/1000)))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape (Finding 4): with replication + update-heavy load, MORE servers are MORE energy-efficient; the gap narrows as RF grows",
		"metric note: Fig. 8 normalizes by one node's power, not cluster energy; both are reported by cmd/rcsim")
	return res
}

func fig13Scenario(o Options, clients int, rate float64) Scenario {
	return Scenario{
		Name:              "fig13",
		Profile:           o.Profile,
		Servers:           10,
		Clients:           clients,
		RF:                2,
		Workload:          ycsb.WorkloadA(100_000, 1024),
		RequestsPerClient: int(rate * 20),
		Rate:              rate,
		Seed:              o.Seed,
	}
}

func fig13Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, cl := range []int{10, 30, 60} {
		for _, rate := range []float64{200, 500} {
			out = append(out, fig13Scenario(o, cl, rate))
		}
	}
	return out
}

func runFig13(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig13", Title: "Throttled update-heavy throughput (op/s), 10 servers, RF 2",
		Setup: "client-side token pacing; ~20s of paced load per run"}
	t := Table{Header: []string{"clients", "rate 200/s", "rate 500/s", "ideal 200", "ideal 500"}}
	for _, cl := range []int{10, 30, 60} {
		row := []string{strconv.Itoa(cl)}
		for _, rate := range []float64{200, 500} {
			r := runMemo(fig13Scenario(o, cl, rate))
			row = append(row, fmt.Sprintf("%.0f", r.Throughput))
		}
		row = append(row, fmt.Sprintf("%.0f", float64(cl)*200), fmt.Sprintf("%.0f", float64(cl)*500))
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: with throttling, throughput scales linearly in the client count and no runs crash")
	return res
}

var consistencyModes = []struct {
	name  string
	async bool
	rdma  bool
}{
	{"sync RPC (strong consistency, RAMCloud)", false, false},
	{"async RPC (relaxed consistency)", true, false},
	{"one-sided RDMA (strong, zero backup CPU)", false, true},
}

func consistencyScenario(o Options, async, rdma bool) Scenario {
	p := o.Profile
	p.Server.AsyncReplication = async
	p.Server.RDMAReplication = rdma
	return Scenario{
		Name:              fmt.Sprintf("consistency-async=%v-rdma=%v", async, rdma),
		Profile:           p,
		Servers:           20,
		Clients:           30,
		RF:                3,
		Workload:          ycsb.WorkloadA(100_000, 1024),
		RequestsPerClient: o.requests(10_000),
		Seed:              o.Seed,
	}
}

func consistencyGrid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, mode := range consistencyModes {
		out = append(out, consistencyScenario(o, mode.async, mode.rdma))
	}
	return out
}

func runConsistencyAblation(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "consistency", Title: "Replication communication ablation (Sec. IX.B)",
		Setup: "20 servers, 30 clients, update-heavy A, RF 3"}
	t := Table{Header: []string{"mode", "throughput", "watts/node", "op/J"}}
	for _, mode := range consistencyModes {
		r := runMemo(consistencyScenario(o, mode.async, mode.rdma))
		t.Rows = append(t.Rows, []string{mode.name, kops(r.Throughput),
			fmt.Sprintf("%.1f", r.AvgPowerPerServer), fmt.Sprintf("%.0f", r.OpsPerJoule)})
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"the paper's Discussion proposes both paths: relaxing consistency (no ack wait) and one-sided RDMA writes that remove the replication CPU from backups while keeping strong consistency")
	return res
}

func distScenario(o Options, wl string, dist ycsb.Distribution) Scenario {
	w := workloadFor(wl, 100_000, 1024)
	w.Dist = dist
	name := "uniform"
	if dist == ycsb.Zipfian {
		name = "zipfian"
	}
	return Scenario{
		Name:              "dist-" + wl + "-" + name,
		Profile:           o.Profile,
		Servers:           10,
		Clients:           30,
		RF:                0,
		Workload:          w,
		RequestsPerClient: o.requests(10_000),
		Seed:              o.Seed,
	}
}

func distGrid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, wl := range []string{"C", "B"} {
		for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			out = append(out, distScenario(o, wl, dist))
		}
	}
	return out
}

func runDistributionStudy(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "dist", Title: "Request-distribution study (Sec. X future work)",
		Setup: "10 servers, 30 clients, RF 0; uniform vs zipfian(0.99)"}
	t := Table{Header: []string{"workload", "distribution", "throughput", "read p99 (us)"}}
	for _, wl := range []string{"C", "B"} {
		for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			r := runMemo(distScenario(o, wl, dist))
			name := "uniform"
			if dist == ycsb.Zipfian {
				name = "zipfian"
			}
			t.Rows = append(t.Rows, []string{wl, name, kops(r.Throughput),
				fmt.Sprintf("%.1f", float64(r.ReadLatency.Quantile(0.99))/1000)})
		}
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"the paper evaluates uniform only and names other distributions as future work",
		"YCSB's scrambled zipfian spreads hot keys across servers, so at client-limited load the aggregate barely moves; the skew shows up as a fatter read tail under workload B")
	return res
}
