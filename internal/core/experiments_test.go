package core

import (
	"strings"
	"testing"

	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 31 {
		t.Fatalf("experiments = %d, want 31", len(exps))
	}
	// Paper ordering is preserved by Order: the original 26 artifacts
	// first (fig1a ... batch), then the registered extensions.
	wantOrder := []string{"fig1a", "fig1b", "fig2", "table1", "table2", "fig3", "fig4a", "fig4b",
		"fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11a", "fig11b",
		"fig12", "fig13", "seg", "cleaner", "consistency", "scatter", "dist", "batch",
		"loadshape", "mixed", "latload", "faultload", "lossy"}
	for i, e := range exps {
		if e.ID != wantOrder[i] {
			t.Fatalf("experiment %d = %q, want %q (paper order broken)", i, e.ID, wantOrder[i])
		}
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Setup == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		// Every grid-driven experiment must enumerate its scenarios so the
		// parallel prewarm covers it; fig10 drives a custom simulation.
		if e.Scenarios == nil && e.ID != "fig10" {
			t.Errorf("experiment %q declares no Scenarios (prewarm cannot parallelize it)", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	mustPanic := func(name string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	mustPanic("duplicate id", Experiment{ID: "fig1a", Title: "dup", Setup: "x", Run: runFig1a})
	mustPanic("missing run", Experiment{ID: "new-exp", Title: "t", Setup: "x"})
	mustPanic("missing id", Experiment{Title: "t", Setup: "x", Run: runFig1a})
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1.0 || o.Seed != 42 || o.Profile.Machine.Cores == 0 {
		t.Fatalf("normalized = %+v", o)
	}
	if (Options{Scale: 2, Seed: 7}).normalize().Scale != 2 {
		t.Fatal("explicit scale overridden")
	}
	if got := (Options{Scale: 0.5}).requests(10_000); got != 5000 {
		t.Fatalf("requests = %d", got)
	}
	if got := (Options{Scale: 0.0001}).normalize().requests(10_000); got != 2000 {
		t.Fatalf("requests floor = %d", got)
	}
	if got := (Options{Scale: 1}).records(10_000_000); got != 1_000_000 {
		t.Fatalf("records = %d (recordScale %v)", got, recordScale)
	}
}

func TestRenderContainsTables(t *testing.T) {
	r := &ExpResult{
		ID: "x", Title: "T", Setup: "S",
		Tables: []Table{{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}},
		Notes:  []string{"hello"},
	}
	out := r.Render()
	for _, want := range []string{"=== x: T ===", "a", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMemoReturnsSameResult(t *testing.T) {
	s := Scenario{
		Name: "memo-test", Servers: 2, Clients: 2,
		Workload:          ycsb.WorkloadC(20_000, 1024),
		RequestsPerClient: 2000, Seed: 3,
	}
	a := runMemo(s)
	b := runMemo(s)
	if a != b {
		t.Fatal("memo did not deduplicate identical scenarios")
	}
	s.RequestsPerClient = 2001
	if c := runMemo(s); c == a {
		t.Fatal("memo conflated distinct scenarios")
	}
}

// Regression: the memo key used to omit KillTarget, Deadline and every
// Profile field except SegmentBytes, so scenarios differing only there
// wrongly shared one *Result. The key now covers the whole scenario.
func TestMemoKeyCoversFullScenario(t *testing.T) {
	base := Scenario{
		Name: "memo-key", Servers: 3, Clients: 0, RF: 1,
		Workload:    ycsb.Workload{Name: "load", RecordCount: 20_000, RecordSize: 1024},
		KillAfter:   2 * sim.Second,
		KillTarget:  0,
		IdleSeconds: 2,
		Seed:        5,
		Profile:     DefaultProfile(),
	}
	a := runMemo(base)

	other := base
	other.KillTarget = 2
	if runMemo(other) == a {
		t.Fatal("memo conflated scenarios differing only in KillTarget")
	}

	deadline := base
	deadline.Deadline = 30 * sim.Minute
	if runMemo(deadline) == a {
		t.Fatal("memo conflated scenarios differing only in Deadline")
	}

	hotter := base
	hotter.Profile.Power.IdleWatts = 100
	if runMemo(hotter) == a {
		t.Fatal("memo conflated scenarios differing only in Profile.Power")
	}

	grouped := base
	grouped.Groups = []ClientGroup{{Name: "g", Clients: 1,
		Workload: ycsb.WorkloadC(20_000, 1024), RequestsPerClient: 2000}}
	if runMemo(grouped) == a {
		t.Fatal("memo conflated scenarios differing only in Groups")
	}
}

func TestRunSeedsDistributions(t *testing.T) {
	sweep := RunSeeds(Scenario{
		Name: "sweep", Servers: 2, Clients: 3,
		Workload:          ycsb.WorkloadB(20_000, 1024),
		RequestsPerClient: 2000,
	}, 3, Options{})
	if sweep.Runs != 3 || sweep.Throughput.N() != 3 {
		t.Fatalf("sweep runs = %d, samples = %d", sweep.Runs, sweep.Throughput.N())
	}
	if sweep.Throughput.Mean() <= 0 || sweep.PowerPerServer.Mean() < 61 {
		t.Fatalf("sweep means: thr=%v pow=%v", sweep.Throughput.Mean(), sweep.PowerPerServer.Mean())
	}
	// Different seeds must produce at least slightly different runs.
	if sweep.Throughput.Stddev() == 0 {
		t.Fatal("zero variance across seeds; seeds not plumbed")
	}
}

func TestKopsFormat(t *testing.T) {
	if kops(2_004_000) != "2004K" {
		t.Fatalf("kops = %q", kops(2_004_000))
	}
	if paperVs("a", "b") != "a / b" {
		t.Fatal("paperVs format")
	}
}

func TestWorkloadForPanicsOnJunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	workloadFor("zz", 1, 1)
}
