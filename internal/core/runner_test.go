package core

import (
	"reflect"
	"sync"
	"testing"

	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// tinyScenario is a cheap distinct scenario for concurrency tests: one
// server, one client, a few hundred ops.
func tinyScenario(seed int64) Scenario {
	return Scenario{
		Name:              "runner-tiny",
		Servers:           1,
		Clients:           1,
		Workload:          ycsb.WorkloadC(1_000, 1024),
		RequestsPerClient: 300,
		Seed:              seed,
	}
}

// TestRunMemoSingleflight hammers the memo from many goroutines (run
// under -race in CI) and asserts exactly one simulation per distinct
// scenario, with every caller sharing that run's Result pointer.
func TestRunMemoSingleflight(t *testing.T) {
	ResetMemo()
	scens := []Scenario{tinyScenario(1), tinyScenario(2), tinyScenario(3)}
	before := memoRuns.Load()

	const goroutines = 48
	results := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs := make([]*Result, len(scens))
			for i := range scens {
				rs[i] = runMemo(scens[(g+i)%len(scens)])
			}
			results[g] = rs
		}(g)
	}
	wg.Wait()

	if runs := memoRuns.Load() - before; runs != int64(len(scens)) {
		t.Fatalf("%d goroutines x %d scenarios executed %d simulations, want %d (singleflight broken)",
			goroutines, len(scens), runs, len(scens))
	}
	canonical := map[string]*Result{}
	for g := range results {
		for i, r := range results[g] {
			s := scens[(g+i)%len(scens)]
			if r == nil {
				t.Fatalf("goroutine %d got nil result", g)
			}
			key := memoKey(s)
			if prev, ok := canonical[key]; ok && prev != r {
				t.Fatalf("scenario seed %d returned two distinct Result pointers", s.Seed)
			} else if !ok {
				canonical[key] = r
			}
		}
	}
}

func TestResetMemoForcesRerun(t *testing.T) {
	ResetMemo()
	s := tinyScenario(11)
	a := runMemo(s)
	before := memoRuns.Load()
	if runMemo(s) != a {
		t.Fatal("memo hit returned a different pointer")
	}
	if memoRuns.Load() != before {
		t.Fatal("memo hit executed a simulation")
	}
	ResetMemo()
	b := runMemo(s)
	if memoRuns.Load() != before+1 {
		t.Fatal("ResetMemo did not force a re-run")
	}
	if a == b {
		t.Fatal("post-reset run returned the old Result pointer")
	}
}

// TestPrewarmWarmsTheMemo runs a fake experiment's grid through the pool
// and asserts the subsequent render path (runMemo per cell) simulates
// nothing new — the prewarm + singleflight + memo interaction the
// parallel `rcbench -all` render depends on.
func TestPrewarmWarmsTheMemo(t *testing.T) {
	ResetMemo()
	grid := []Scenario{tinyScenario(21), tinyScenario(22)}
	exp := Experiment{
		ID: "prewarm-test", Title: "t", Setup: "s",
		Scenarios: func(Options) []Scenario { return grid },
	}
	before := memoRuns.Load()
	// The same experiment twice: the dedup must collapse the doubled grid.
	NewRunner(4).Prewarm([]Experiment{exp, exp}, Options{})
	if runs := memoRuns.Load() - before; runs != int64(len(grid)) {
		t.Fatalf("prewarm executed %d simulations, want %d", runs, len(grid))
	}
	for _, s := range grid {
		runMemo(s)
	}
	if runs := memoRuns.Load() - before; runs != int64(len(grid)) {
		t.Fatalf("render after prewarm re-simulated: %d runs total, want %d", runs, len(grid))
	}
}

// TestPrewarmCoversRender checks a registered experiment's declared grid
// against its render. A fresh render counts the distinct cells it asks
// for; prewarming the grid must simulate exactly that many, and the
// render after it none: a cell the grid misses is simulated twice, and a
// cell the render never reads is simulated for nothing.
func TestPrewarmCoversRender(t *testing.T) {
	opts := Options{Scale: 0.02, Seed: 42}
	for _, id := range []string{"seg", "fig4b"} {
		t.Run(id, func(t *testing.T) {
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("%s is not registered", id)
			}
			ResetMemo()
			before := memoRuns.Load()
			exp.Run(opts)
			rendered := memoRuns.Load() - before
			if rendered == 0 {
				t.Fatal("render simulated nothing")
			}
			ResetMemo()
			before = memoRuns.Load()
			NewRunner(2).Prewarm([]Experiment{exp}, opts)
			if prewarmed := memoRuns.Load() - before; prewarmed != rendered {
				t.Fatalf("prewarm simulated %d cells, the render asks for %d", prewarmed, rendered)
			}
			before = memoRuns.Load()
			exp.Run(opts)
			if runs := memoRuns.Load() - before; runs != 0 {
				t.Fatalf("render after prewarm simulated %d cells again", runs)
			}
		})
	}
}

// TestRunSeedsParallelMatchesSerial asserts a seed sweep aggregates
// bit-identical distributions at -j 1 and -j 8: per-seed runs are
// independent simulations and the scalars fold in ascending seed order
// regardless of completion order.
func TestRunSeedsParallelMatchesSerial(t *testing.T) {
	s := Scenario{
		Name:              "sweep-par",
		Servers:           2,
		Clients:           2,
		Workload:          ycsb.WorkloadB(2_000, 1024),
		RequestsPerClient: 500,
	}
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	serial := RunSeeds(s, 8, Options{})
	SetParallelism(8)
	parallel := RunSeeds(s, 8, Options{})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("seed sweep differs between -j 1 and -j 8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.Throughput.N() != 8 || serial.Throughput.Stddev() == 0 {
		t.Fatalf("sweep degenerate: %+v", serial)
	}
}

func TestParallelismDefaultsAndOverride(t *testing.T) {
	prev := SetParallelism(0)
	defer SetParallelism(prev)
	if Parallelism() < 1 {
		t.Fatalf("default parallelism %d", Parallelism())
	}
	if SetParallelism(3) != 0 {
		t.Fatal("SetParallelism did not report the previous default")
	}
	if Parallelism() != 3 {
		t.Fatalf("override ignored: %d", Parallelism())
	}
	if NewRunner(0).Workers() != 3 {
		t.Fatal("NewRunner(0) ignored the process default")
	}
	if NewRunner(7).Workers() != 7 {
		t.Fatal("NewRunner(7) ignored its argument")
	}
}

// TestRunnerPropagatesPanics: a scenario that panics inside Run (here a
// windowed group without a window, a programming error) must re-raise on
// the RunAll caller — not kill an anonymous pool goroutine — and its
// dropped memo entry must leave the memo usable: the next request
// re-attempts the run and hits the same panic, rather than returning a
// stale nil result.
func TestRunnerPropagatesPanics(t *testing.T) {
	ResetMemo()
	bad := Scenario{
		Name:    "runner-panic",
		Servers: 1,
		Groups: []ClientGroup{{
			Name: "bad", Clients: 1,
			Workload:          ycsb.WorkloadC(1_000, 1024),
			RequestsPerClient: 10,
			Arrival:           ArrivalWindowed, // Window < 2: runOptionsFor panics
		}},
		Seed: 1,
	}
	mustPanic := func(fn func()) (p any) {
		t.Helper()
		defer func() { p = recover() }()
		fn()
		t.Fatal("no panic propagated")
		return nil
	}
	first := mustPanic(func() { NewRunner(4).RunAll([]Scenario{bad, tinyScenario(41)}) })
	before := memoRuns.Load()
	second := mustPanic(func() { runMemo(bad) })
	if first == nil || second == nil || first != second {
		t.Fatalf("panic values differ: %v vs %v", first, second)
	}
	// The dropped entry means the retry re-panicked by running again (one
	// more simulation attempt), not by returning a stale nil result.
	if memoRuns.Load() != before+1 {
		t.Fatalf("expected exactly one re-attempt after the dropped entry, got %d", memoRuns.Load()-before)
	}
}

// TestRunAllReplicatedCellsInParallel runs two replicated cells on the
// pool at once — writes at RF 3, and a master killed and recovered at
// RF 2 — and checks each against its own run alone. Every backup of both
// answers with the same shared status-only acks (a sent message is
// immutable), so under -race a write to one of them is reported here.
func TestRunAllReplicatedCellsInParallel(t *testing.T) {
	writes := Scenario{
		Name: "par-rf3", Profile: smallProfile(), Servers: 4, Clients: 4, RF: 3,
		Workload: ycsb.WorkloadA(2_000, 512), RequestsPerClient: 400, Seed: 7,
	}
	kill := Scenario{
		Name: "par-kill-rf2", Profile: smallProfile(), Servers: 4, RF: 2,
		Workload:  ycsb.Workload{RecordCount: 500, RecordSize: 512},
		KillAfter: 2 * sim.Second, KillTarget: 1, IdleSeconds: 2, Seed: 5,
	}
	ResetMemo()
	rs := NewRunner(2).RunAll([]Scenario{writes, kill})
	if !rs[1].Recovered {
		t.Fatal("the killed master's data was not recovered")
	}
	for i, s := range []Scenario{writes, kill} {
		alone := Run(s)
		got, want := rs[i], alone
		if got.TotalOps != want.TotalOps || got.Duration != want.Duration ||
			got.TotalJoules != want.TotalJoules || got.RecoveryTime != want.RecoveryTime {
			t.Errorf("%s on the pool: ops %d, %v, %v J, recovery %v; alone: ops %d, %v, %v J, recovery %v",
				s.Name, got.TotalOps, got.Duration, got.TotalJoules, got.RecoveryTime,
				want.TotalOps, want.Duration, want.TotalJoules, want.RecoveryTime)
		}
	}
}

// TestRunAllOrderAndDedup checks RunAll returns results in input order
// and that duplicate scenarios share one simulation and one pointer.
func TestRunAllOrderAndDedup(t *testing.T) {
	ResetMemo()
	s1, s2 := tinyScenario(31), tinyScenario(32)
	before := memoRuns.Load()
	rs := NewRunner(4).RunAll([]Scenario{s1, s2, s1})
	if memoRuns.Load()-before != 2 {
		t.Fatalf("RunAll simulated %d scenarios, want 2", memoRuns.Load()-before)
	}
	if rs[0] == nil || rs[1] == nil || rs[0] == rs[1] {
		t.Fatal("distinct scenarios shared a result")
	}
	if rs[0] != rs[2] {
		t.Fatal("duplicate scenario did not share its result")
	}
	if rs[0].Scenario != s1.Name {
		t.Fatalf("result order broken: %q", rs[0].Scenario)
	}
}
