package ramcloud_test

import (
	"fmt"

	"ramcloud"
)

// The basic lifecycle: build a cluster, write, read, shut down.
func Example() {
	sim := ramcloud.NewSimulation(ramcloud.Options{Servers: 3, Seed: 1})
	table := sim.CreateTable("usertable")
	sim.Spawn("app", func(c *ramcloud.Client) {
		if err := c.Write(table, []byte("hello"), []byte("world")); err != nil {
			fmt.Println("write failed:", err)
			return
		}
		v, err := c.Read(table, []byte("hello"))
		if err != nil {
			fmt.Println("read failed:", err)
			return
		}
		fmt.Println(string(v))
	})
	sim.Run()
	// Output: world
}

// Durability: a replicated write survives the crash of its master.
func ExampleSimulation_KillServer() {
	sim := ramcloud.NewSimulation(ramcloud.Options{
		Servers:           4,
		ReplicationFactor: 2,
		Seed:              2,
	})
	table := sim.CreateTable("t")
	sim.Spawn("app", func(c *ramcloud.Client) {
		_ = c.Write(table, []byte("k"), []byte("precious"))
		for i := 0; i < sim.Servers(); i++ {
			sim.KillServer(i)
			break // kill exactly one
		}
		v, err := c.Read(table, []byte("k")) // blocks through recovery
		fmt.Println(string(v), err == nil)
	})
	sim.Run()
	// Output: precious true
}

// Virtual payloads: paper-scale values without materializing bytes.
func ExampleClient_WriteLen() {
	sim := ramcloud.NewSimulation(ramcloud.Options{Servers: 2, Seed: 3})
	table := sim.CreateTable("t")
	sim.Spawn("app", func(c *ramcloud.Client) {
		_ = c.WriteLen(table, []byte("big"), 1<<20) // 1 MiB, virtual
		n, _ := c.ReadLen(table, []byte("big"))
		fmt.Println(n)
	})
	sim.Run()
	// Output: 1048576
}

// Every experiment of the paper can be regenerated by id.
func ExampleExperimentIDs() {
	ids := ramcloud.ExperimentIDs()
	fmt.Println(len(ids), ids[0], ids[4])
	// Output: 31 fig1a table2
}

// Multi-op batching: MultiWrite stores a batch with at most one RPC per
// master, MultiRead fetches one the same way. Absent keys fail
// individually without failing the batch.
func ExampleClient_MultiRead() {
	sim := ramcloud.NewSimulation(ramcloud.Options{Servers: 4, Seed: 8})
	table := sim.CreateTable("t")
	sim.Spawn("app", func(c *ramcloud.Client) {
		errs := c.MultiWrite(table, []ramcloud.WriteOp{
			{Key: []byte("a"), Value: []byte("alpha")},
			{Key: []byte("b"), Value: []byte("beta")},
			{Key: []byte("g"), Value: []byte("gamma")},
		})
		for _, err := range errs {
			if err != nil {
				fmt.Println("write failed:", err)
				return
			}
		}
		results := c.MultiRead(table, []byte("a"), []byte("b"), []byte("missing"))
		for _, r := range results {
			if r.Err != nil {
				fmt.Println("-")
				continue
			}
			fmt.Println(string(r.Value))
		}
	})
	sim.Run()
	// Output:
	// alpha
	// beta
	// -
}

// Asynchronous operations: issue many requests, then wait — the round
// trips overlap instead of queueing behind a closed loop.
func ExampleClient_ReadAsync() {
	sim := ramcloud.NewSimulation(ramcloud.Options{Servers: 2, Seed: 4})
	table := sim.CreateTable("t")
	sim.Spawn("app", func(c *ramcloud.Client) {
		for i := 0; i < 3; i++ {
			if err := c.Write(table, []byte{byte('0' + i)}, []byte{byte('a' + i)}); err != nil {
				fmt.Println("write failed:", err)
				return
			}
		}
		futures := make([]*ramcloud.Future, 3)
		for i := range futures {
			futures[i] = c.ReadAsync(table, []byte{byte('0' + i)})
		}
		for _, f := range futures {
			v, err := f.Wait()
			if err != nil {
				fmt.Println("read failed:", err)
				return
			}
			fmt.Print(string(v))
		}
		fmt.Println()
	})
	sim.Run()
	// Output: abc
}
