package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ramcloud/internal/metrics"
	"ramcloud/internal/ycsb"
)

// Options scale and seed an experiment run. Scale multiplies the paper's
// record counts and this reproduction's standard request counts; 1.0 is
// rcbench's default and the committed full-scale rendering's
// (cmd/rcbench/testdata/render-1.txt, with 0.5 beside it in
// render-0.5.txt); larger values approach paper-scale durations at
// proportional wall-clock cost.
type Options struct {
	Scale   float64
	Seed    int64
	Profile Profile
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Profile.Machine.Cores == 0 {
		o.Profile = DefaultProfile()
	}
	return o
}

// requests scales one of this reproduction's standard request counts.
func (o Options) requests(std int) int {
	n := int(float64(std) * o.Scale)
	if n < 2000 {
		n = 2000
	}
	return n
}

// records scales a record count published in the paper. The floor keeps
// datasets large enough to span many segments.
func (o Options) records(paper int) int {
	n := int(float64(paper) * o.Scale * recordScale)
	if n < 20_000 {
		n = 20_000
	}
	return n
}

// recordScale maps the paper's 10M-record recovery datasets to a default
// that runs in seconds rather than hours; Options.Scale multiplies it.
const recordScale = 0.1

// Table is one rendered result table.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// ExpResult is the outcome of one experiment.
type ExpResult struct {
	ID     string
	Title  string
	Setup  string
	Tables []Table
	Series map[string]*metrics.Series
	Notes  []string
}

// Render formats the result as plain text.
func (r *ExpResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n%s\n\n", r.ID, r.Title, r.Setup)
	for _, t := range r.Tables {
		if t.Caption != "" {
			fmt.Fprintf(&b, "%s\n", t.Caption)
		}
		b.WriteString(metrics.FormatTable(t.Header, t.Rows))
		b.WriteString("\n")
	}
	if len(r.Series) > 0 {
		keys := make([]string, 0, len(r.Series))
		for k := range r.Series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := r.Series[k]
			fmt.Fprintf(&b, "series %s (per second): ", k)
			for i := 0; i < s.Len(); i++ {
				fmt.Fprintf(&b, "%.1f ", s.At(i))
			}
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one of the paper's tables or figures, or an
// extension registered on top of them.
type Experiment struct {
	ID    string
	Title string
	Setup string
	// Order fixes the experiment's position in Experiments(): the paper's
	// artifacts use 10, 20, ... in paper order, so extensions can slot
	// anywhere without renumbering. Ties break by registration order.
	Order int
	Run   func(Options) *ExpResult
	// Scenarios enumerates the exact scenario grid Run will execute, so
	// Runner.Prewarm can pump every cell through the worker pool before a
	// sequential render. Nil for experiments that drive a custom
	// simulation loop (fig10) — those cannot be prewarmed.
	Scenarios func(Options) []Scenario
}

// The experiment registry. Each experiments_*.go file registers its
// entries from init(), so adding an experiment is one Register call in
// the file that implements it — no central list to edit.
var (
	regMu    sync.Mutex
	registry []Experiment
)

// Register adds an experiment to the registry. It panics on a duplicate
// or incomplete registration — both are programming errors caught at
// process start because all registration happens in init().
func Register(e Experiment) {
	if e.ID == "" || e.Title == "" || e.Run == nil {
		panic(fmt.Sprintf("core: incomplete experiment registration %+v", e))
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, have := range registry {
		if have.ID == e.ID {
			panic(fmt.Sprintf("core: duplicate experiment id %q", e.ID))
		}
	}
	registry = append(registry, e)
}

// Experiments returns every registered experiment in paper order
// (ascending Order, stable on ties).
func Experiments() []Experiment {
	regMu.Lock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	regMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// The scenario memo lives in runner.go: runMemo is singleflight (the key
// is the %#v rendering of the full scenario, derived from its type in
// memokey.go, so two scenarios differing anywhere never share a memoized
// Result, while concurrent requests for the same scenario share one run).

// kops formats an ops/s number in Kop/s like the paper.
func kops(v float64) string { return fmt.Sprintf("%.0fK", v/1000) }

// paperVs builds a "paper -> measured" cell.
func paperVs(paper string, measured string) string {
	return paper + " / " + measured
}

func workloadFor(name string, records, size int) ycsb.Workload {
	w, err := ycsb.ByName(name, records, size)
	if err != nil {
		panic(err)
	}
	return w
}
