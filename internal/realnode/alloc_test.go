package realnode

import (
	"bytes"
	"runtime"
	"testing"

	"ramcloud/internal/ycsb"
)

// mallocsPerOp runs f ops times and returns heap objects allocated per
// op, process-wide: the client, both sides' transport and the servers all
// run in this process, as they do in the benchmark's allocs_per_op.
func mallocsPerOp(ops int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// TestAllocationBudget pins what one operation allocates end to end over
// loopback TCP, so an allocation that creeps back onto the attempt path
// fails here, by name, before it shows as a third-decimal move in the
// benchmark. PERFORMANCE.md ("The real path: what an attempt allocates")
// accounts for every object under each budget. The background (the
// coordinator's pinger, the runtime) adds a few hundredths per op, which
// is why the budgets are bounds, not equalities.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const (
		records = 512
		ops     = 2000
		batch   = 32
	)
	_, _, client := bootCluster(t, 3)
	table, err := client.CreateTable("usertable", 3)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	keys := make([][]byte, records)
	value := bytes.Repeat([]byte{'v'}, 1024)
	for i := range keys {
		keys[i] = ycsb.Key(i * 7)
		if _, err := client.Put(table, keys[i], value); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	values := make([][]byte, batch)
	for i := range values {
		values[i] = value
	}

	get := func(i int) {
		if _, _, err := client.Get(table, keys[i%records]); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	put := func(i int) {
		if _, err := client.Put(table, keys[i%records], value); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	async := func(i int) {
		if _, _, err := client.GetAsync(table, keys[i%records]).Wait(); err != nil {
			t.Fatalf("async get: %v", err)
		}
	}
	window := func(i int) [][]byte {
		at := i * batch % (records - batch)
		return keys[at : at+batch]
	}
	multiRead := func(i int) {
		for _, r := range client.MultiRead(table, window(i)) {
			if r.Err != nil {
				t.Fatalf("multi-read: %v", r.Err)
			}
		}
	}
	multiWrite := func(i int) {
		for _, r := range client.MultiWrite(table, window(i), values) {
			if r.Err != nil {
				t.Fatalf("multi-write: %v", r.Err)
			}
		}
	}

	for _, c := range []struct {
		name   string
		op     func(i int)
		ops    int
		items  int     // items per op; the figure is per item
		budget float64 // objects per item
	}{
		{"Get", get, ops, 1, 5},
		{"Put", put, ops, 1, 4},
		{"GetAsync+Wait", async, ops, 1, 6},
		// A batch spans the three masters unevenly, so a multi-op's
		// figure is fractional: its budget is the measured figure rounded
		// up to the next tenth, about one more object per RPC (some three
		// RPCs per batch).
		{"MultiRead/32", multiRead, ops / batch, batch, 0.6},
		{"MultiWrite/32", multiWrite, ops / batch, batch, 0.5},
	} {
		mallocsPerOp(c.ops/4, c.op) // warm-up: pools filled, buffers grown
		got := mallocsPerOp(c.ops, c.op) / float64(c.items)
		t.Logf("%-14s %.3f allocations per item (budget %v)", c.name, got, c.budget)
		// The slack is the background's share, far below one object per op.
		if got > c.budget+0.25/float64(c.items) {
			t.Errorf("%s allocates %.3f objects per item, budget %v", c.name, got, c.budget)
		}
	}
}
