package core

import (
	"fmt"
	"strconv"

	"ramcloud/internal/ycsb"
)

// This file regenerates the read-only characterization: Fig. 1a/1b,
// Fig. 2 and Table I (Section IV of the paper).

func init() {
	Register(Experiment{ID: "fig1a", Order: 10, Title: "Aggregated read-only throughput vs cluster size", Setup: "workload C, RF 0, servers {1,5,10} x clients {1,10,30}", Run: runFig1a, Scenarios: fig1Grid})
	Register(Experiment{ID: "fig1b", Order: 20, Title: "Average power per server (read-only)", Setup: "same grid as fig1a", Run: runFig1b, Scenarios: fig1Grid})
	Register(Experiment{ID: "fig2", Order: 30, Title: "Energy efficiency (op/J) of read-only runs", Setup: "same grid as fig1a", Run: runFig2, Scenarios: fig1Grid})
	Register(Experiment{ID: "table1", Order: 40, Title: "Min-max CPU usage per node (read-only)", Setup: "servers {1,5,10} x clients {0..5,10,30}", Run: runTable1, Scenarios: table1Grid})
	Register(Experiment{ID: "table2", Order: 50, Title: "Throughput of workloads A/B/C on 10 servers", Setup: "RF 0, 100K records, clients {10..90}", Run: runTable2, Scenarios: table2Grid})
	Register(Experiment{ID: "fig3", Order: 60, Title: "Scalability factor vs 10-client baseline", Setup: "derived from table2", Run: runFig3, Scenarios: table2Grid})
	Register(Experiment{ID: "fig4a", Order: 70, Title: "Average power per node, 20 servers", Setup: "A/B/C x clients {10..90}", Run: runFig4a, Scenarios: fig4Grid})
	Register(Experiment{ID: "fig4b", Order: 80, Title: "Total energy at 90 clients by workload", Setup: "20 servers", Run: runFig4b, Scenarios: fig4bGrid})
}

var fig1Servers = []int{1, 5, 10}
var fig1Clients = []int{1, 10, 30}

// fig1Scenario is one cell of the Fig. 1 grid (shared by fig1a/1b/2).
func fig1Scenario(o Options, servers, clients int) Scenario {
	return Scenario{
		Name:              "fig1",
		Profile:           o.Profile,
		Servers:           servers,
		Clients:           clients,
		RF:                0,
		Workload:          ycsb.WorkloadC(o.records(5_000_000), 1024),
		RequestsPerClient: o.requests(40_000),
		Seed:              o.Seed,
	}
}

func fig1Cell(o Options, servers, clients int) *Result {
	return runMemo(fig1Scenario(o, servers, clients))
}

func fig1Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, srv := range fig1Servers {
		for _, cl := range fig1Clients {
			out = append(out, fig1Scenario(o, srv, cl))
		}
	}
	return out
}

// paperFig1a holds the paper's approximate Fig. 1a readings (Kop/s);
// negative means the paper does not report the cell numerically.
var paperFig1a = map[[2]int]float64{
	{1, 30}: 372, // "reaches its limit at 30 clients for ... 372Kreq/s"
}

func runFig1a(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig1a", Title: "Read-only aggregated throughput",
		Setup: fmt.Sprintf("workload C, RF 0, %d reqs/client, scale %.2f", o.requests(40_000), o.Scale)}
	t := Table{Header: []string{"servers", "clients", "throughput", "paper"}}
	for _, srv := range fig1Servers {
		for _, cl := range fig1Clients {
			r := fig1Cell(o, srv, cl)
			paper := "-"
			if v, ok := paperFig1a[[2]int{srv, cl}]; ok {
				paper = fmt.Sprintf("%.0fK", v)
			}
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(srv), strconv.Itoa(cl), kops(r.Throughput), paper,
			})
		}
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: single server saturates ~372K; 5 servers scale linearly; 10 servers add nothing (client-limited)")
	return res
}

func runFig1b(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig1b", Title: "Average power per server (read-only)",
		Setup: "same grid as fig1a"}
	paper := map[[2]int]string{
		{1, 1}: "92W", {5, 1}: "93W", {10, 1}: "95W",
		{1, 10}: "122-127W", {5, 10}: "122-127W", {10, 10}: "122-127W",
		{1, 30}: "122-127W", {5, 30}: "122-127W", {10, 30}: "122-127W",
	}
	t := Table{Header: []string{"servers", "clients", "watts/server", "paper"}}
	for _, srv := range fig1Servers {
		for _, cl := range fig1Clients {
			r := fig1Cell(o, srv, cl)
			p := paper[[2]int{srv, cl}]
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(srv), strconv.Itoa(cl), fmt.Sprintf("%.1fW", r.AvgPowerPerServer), p,
			})
		}
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: power rises with load but is non-proportional - same watts for different throughputs")
	return res
}

func runFig2(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig2", Title: "Energy efficiency (op/J), read-only",
		Setup: "same grid as fig1a"}
	t := Table{Header: []string{"servers", "clients", "op/J", "paper"}}
	paper := map[[2]int]string{{1, 30}: "~3000"}
	for _, srv := range fig1Servers {
		for _, cl := range fig1Clients {
			r := fig1Cell(o, srv, cl)
			p := paper[[2]int{srv, cl}]
			if p == "" {
				p = "-"
			}
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(srv), strconv.Itoa(cl), fmt.Sprintf("%.0f", r.OpsPerJoule), p,
			})
		}
	}
	// Headline ratio: single server vs 10 servers at 30 clients.
	one := fig1Cell(o, 1, 30).OpsPerJoule
	ten := fig1Cell(o, 10, 30).OpsPerJoule
	res.Tables = []Table{t}
	if ten > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"efficiency(1 server)/efficiency(10 servers) at 30 clients = %.1fx (paper: ~7.6x)", one/ten))
	}
	res.Notes = append(res.Notes,
		"paper shape: best efficiency with the fewest servers at the highest load")
	return res
}

// paperTable1 holds Table I's per-cell CPU ranges (single-server column
// uses avg; multi-server columns min-max).
var paperTable1 = map[int][3]string{
	0:  {"25", "25 - 25", "25 - 25"},
	1:  {"49.8", "49.7 - 49.8", "49.6 - 49.9"},
	2:  {"74.2", "72.1 - 72.7", "62.6 - 63.9"},
	3:  {"79.7", "74.0 - 74.4", "72.2 - 73.3"},
	4:  {"89.8", "77.8 - 78.7", "74.3 - 75.3"},
	5:  {"94.3", "84.9 - 86.0", "75.9 - 77.0"},
	10: {"98.4", "96.9 - 97.4", "91.9 - 93.1"},
	30: {"99.3", "96.8 - 97.2", "94.9 - 96.0"},
}

var table1Clients = []int{0, 1, 2, 3, 4, 5, 10, 30}

// table1Scenario is one cell of Table I: clients == 0 is the idle
// measurement (5 s without load), otherwise a loaded run.
func table1Scenario(o Options, servers, clients int) Scenario {
	if clients == 0 {
		return Scenario{
			Name: "table1-idle", Profile: o.Profile, Servers: servers, Clients: 0,
			Workload:    ycsb.WorkloadC(o.records(5_000_000), 1024),
			IdleSeconds: 5, Seed: o.Seed,
		}
	}
	return Scenario{
		Name: "table1", Profile: o.Profile, Servers: servers, Clients: clients,
		Workload:          ycsb.WorkloadC(o.records(5_000_000), 1024),
		RequestsPerClient: o.requests(40_000),
		Seed:              o.Seed,
	}
}

func table1Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, cl := range table1Clients {
		for _, srv := range fig1Servers {
			out = append(out, table1Scenario(o, srv, cl))
		}
	}
	return out
}

func runTable1(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "table1", Title: "Min-max CPU usage (%), read-only",
		Setup: "workload C, RF 0; paper / measured per cell"}
	t := Table{Header: []string{"clients", "1 server", "5 servers", "10 servers"}}
	for _, cl := range table1Clients {
		row := []string{strconv.Itoa(cl)}
		for i, srv := range fig1Servers {
			r := runMemo(table1Scenario(o, srv, cl))
			var cell string
			if cl == 0 {
				cell = fmt.Sprintf("%.1f", r.CPUMax*100)
			} else {
				cell = fmt.Sprintf("%.1f - %.1f", r.CPUMin*100, r.CPUMax*100)
			}
			row = append(row, paperVs(paperTable1[cl][i], cell))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: 25% floor when idle (pinned dispatch core); ~+25% per active worker; CPU saturates before throughput")
	return res
}

// tableTwoScenario is one cell of the Table II grid (10 servers, shared
// by table2 and fig3).
func tableTwoScenario(o Options, servers, clients int, wl string) Scenario {
	return Scenario{
		Name:              "table2",
		Profile:           o.Profile,
		Servers:           servers,
		Clients:           clients,
		RF:                0,
		Workload:          workloadFor(wl, 100_000, 1024),
		RequestsPerClient: o.requests(20_000),
		Seed:              o.Seed,
	}
}

func tableTwoCell(o Options, servers, clients int, wl string) *Result {
	return runMemo(tableTwoScenario(o, servers, clients, wl))
}

func table2Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, cl := range table2Clients {
		for _, wl := range []string{"A", "B", "C"} {
			out = append(out, tableTwoScenario(o, 10, cl, wl))
		}
	}
	return out
}

// paperTable2 holds Table II (Kop/s) for 10 servers.
var paperTable2 = map[string]map[int]float64{
	"A": {10: 98, 20: 106, 30: 64, 60: 63, 90: 64},
	"B": {10: 236, 20: 454, 30: 622, 60: 816, 90: 844},
	"C": {10: 236, 20: 482, 30: 753, 60: 1433, 90: 2004},
}

var table2Clients = []int{10, 20, 30, 60, 90}

func runTable2(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "table2", Title: "Aggregated throughput (Kop/s), 10 servers",
		Setup: fmt.Sprintf("RF 0, 100K records, %d reqs/client; paper / measured", o.requests(20_000))}
	t := Table{Header: []string{"clients", "A", "B", "C"}}
	for _, cl := range table2Clients {
		row := []string{strconv.Itoa(cl)}
		for _, wl := range []string{"A", "B", "C"} {
			r := tableTwoCell(o, 10, cl, wl)
			row = append(row, paperVs(fmt.Sprintf("%.0fK", paperTable2[wl][cl]), kops(r.Throughput)))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	a90 := tableTwoCell(o, 10, 90, "A").Throughput
	c90 := tableTwoCell(o, 10, 90, "C").Throughput
	if a90 > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"C/A throughput ratio at 90 clients = %.0fx (paper: 31x)", c90/a90))
	}
	return res
}

func runFig3(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig3", Title: "Scalability factor (baseline: 10 clients)",
		Setup: "derived from table2 runs"}
	t := Table{Header: []string{"clients", "read-only", "read-heavy", "update-heavy", "perfect"}}
	base := map[string]float64{}
	for _, wl := range []string{"A", "B", "C"} {
		base[wl] = tableTwoCell(o, 10, 10, wl).Throughput
	}
	for _, cl := range table2Clients {
		row := []string{strconv.Itoa(cl)}
		for _, wl := range []string{"C", "B", "A"} {
			r := tableTwoCell(o, 10, cl, wl)
			row = append(row, fmt.Sprintf("%.2f", r.Throughput/base[wl]))
		}
		row = append(row, fmt.Sprintf("%.1f", float64(cl)/10))
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper shape: read-only tracks perfect scaling; read-heavy collapses between 30 and 60; update-heavy never scales")
	return res
}

func fig4Scenario(o Options, clients int, wl string) Scenario {
	return Scenario{
		Name:              "fig4",
		Profile:           o.Profile,
		Servers:           20,
		Clients:           clients,
		RF:                0,
		Workload:          workloadFor(wl, 100_000, 1024),
		RequestsPerClient: o.requests(20_000),
		Seed:              o.Seed,
	}
}

func fig4Cell(o Options, clients int, wl string) *Result {
	return runMemo(fig4Scenario(o, clients, wl))
}

func fig4Grid(o Options) []Scenario {
	o = o.normalize()
	var out []Scenario
	for _, cl := range table2Clients {
		for _, wl := range []string{"C", "B", "A"} {
			out = append(out, fig4Scenario(o, cl, wl))
		}
	}
	return out
}

// fig4bGrid is the 90-client row of fig4Grid, the only cells fig4b renders.
func fig4bGrid(o Options) []Scenario {
	o = o.normalize()
	return []Scenario{fig4Scenario(o, 90, "C"), fig4Scenario(o, 90, "B"), fig4Scenario(o, 90, "A")}
}

func runFig4a(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig4a", Title: "Average power per node (W), 20 servers",
		Setup: "RF 0; paper / measured"}
	paper := map[string]map[int]string{
		"C": {10: "82", 20: "82", 30: "82", 60: "82", 90: "93"},
		"B": {10: "92", 20: "92", 30: "92", 60: "92", 90: "100"},
		"A": {10: "90", 20: "90", 30: "95", 60: "100", 90: "110"},
	}
	t := Table{Header: []string{"clients", "read-only C", "read-heavy B", "update-heavy A"}}
	for _, cl := range table2Clients {
		row := []string{strconv.Itoa(cl)}
		for _, wl := range []string{"C", "B", "A"} {
			r := fig4Cell(o, cl, wl)
			row = append(row, paperVs(paper[wl][cl], fmt.Sprintf("%.0f", r.AvgPowerPerServer)))
		}
		t.Rows = append(t.Rows, row)
	}
	res.Tables = []Table{t}
	return res
}

func runFig4b(o Options) *ExpResult {
	o = o.normalize()
	res := &ExpResult{ID: "fig4b", Title: "Total energy at 90 clients (KJ), 20 servers",
		Setup: "RF 0; same requests per run for all workloads"}
	t := Table{Header: []string{"workload", "energy", "vs C"}}
	energies := map[string]float64{}
	for _, wl := range []string{"C", "B", "A"} {
		r := fig4Cell(o, 90, wl)
		energies[wl] = r.TotalJoules
	}
	for _, wl := range []string{"C", "B", "A"} {
		t.Rows = append(t.Rows, []string{
			wl, fmt.Sprintf("%.1fKJ", energies[wl]/1000),
			fmt.Sprintf("%.2fx", energies[wl]/energies["C"]),
		})
	}
	res.Tables = []Table{t}
	res.Notes = append(res.Notes,
		"paper: B consumes 1.28x the energy of C; A consumes 4.92x (Finding 2)")
	return res
}
