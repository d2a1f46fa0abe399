package ramcloud

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sim := NewSimulation(Options{Servers: 3, Seed: 7})
	table := sim.CreateTable("usertable")
	var got []byte
	var readErr error
	sim.Spawn("app", func(c *Client) {
		if err := c.Write(table, []byte("hello"), []byte("world")); err != nil {
			readErr = err
			return
		}
		got, readErr = c.Read(table, []byte("hello"))
	})
	sim.Run()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(got) != "world" {
		t.Fatalf("got %q", got)
	}
}

func TestPublicAPIVirtualPayloads(t *testing.T) {
	sim := NewSimulation(Options{Servers: 2, Seed: 3})
	table := sim.CreateTable("t")
	sim.BulkLoad(table, 500, 4096)
	var n int
	var err error
	sim.Spawn("app", func(c *Client) {
		n, err = c.ReadLen(table, []byte("user0000000042"))
	})
	sim.Run()
	if err != nil || n != 4096 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestPublicAPINotFound(t *testing.T) {
	sim := NewSimulation(Options{Servers: 2, Seed: 3})
	table := sim.CreateTable("t")
	var err error
	sim.Spawn("app", func(c *Client) {
		_, err = c.Read(table, []byte("missing"))
	})
	sim.Run()
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPublicAPIDeleteRoundTrip(t *testing.T) {
	sim := NewSimulation(Options{Servers: 3, ReplicationFactor: 2, Seed: 5})
	table := sim.CreateTable("t")
	var errs []error
	sim.Spawn("app", func(c *Client) {
		errs = append(errs, c.Write(table, []byte("k"), []byte("v")))
		errs = append(errs, c.Delete(table, []byte("k")))
		if _, err := c.Read(table, []byte("k")); !errors.Is(err, ErrNotFound) {
			errs = append(errs, fmt.Errorf("read after delete: %v", err))
		}
		if err := c.Delete(table, []byte("k")); !errors.Is(err, ErrNotFound) {
			errs = append(errs, fmt.Errorf("double delete: %v", err))
		}
	})
	sim.Run()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	sim := NewSimulation(Options{Servers: 4, ReplicationFactor: 2, Seed: 11})
	table := sim.CreateTable("t")
	sim.BulkLoad(table, 2000, 1024)
	lost := 0
	sim.Spawn("verifier", func(c *Client) {
		c.Sleep(time.Second)
		sim.KillServer(1)
		// Wait for the coordinator to finish recovery.
		for sim.RecoveryCount() == 0 {
			c.Sleep(500 * time.Millisecond)
			if c.Now() > 5*time.Minute {
				return
			}
		}
		for i := 0; i < 2000; i++ {
			key := []byte(fmt.Sprintf("user%010d", i))
			if n, err := c.ReadLen(table, key); err != nil || n != 1024 {
				lost++
			}
		}
	})
	sim.Run()
	if sim.RecoveryCount() == 0 {
		t.Fatal("recovery never completed")
	}
	if lost != 0 {
		t.Fatalf("%d records unreadable after recovery", lost)
	}
}

func TestPublicAPIWorkloadAndEnergy(t *testing.T) {
	sim := NewSimulation(Options{Servers: 2, Seed: 9})
	table := sim.CreateTable("usertable")
	sim.BulkLoad(table, 1000, 1024)
	for i := 0; i < 4; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("ycsb-%d", i), func(c *Client) {
			if err := c.RunWorkload(table, "b", 1000, 3000, 0, int64(i)); err != nil {
				t.Errorf("workload: %v", err)
			}
		})
	}
	sim.Run()
	rep := sim.EnergyReport()
	if rep.Ops != 4*3000 {
		t.Fatalf("ops = %d", rep.Ops)
	}
	if rep.TotalJoules <= 0 || rep.EnergyEfficiency() <= 0 {
		t.Fatalf("energy report: %+v", rep)
	}
	if w := rep.MeanNodeWatts(); w < 61 || w > 131 {
		t.Fatalf("implausible node power %v W", w)
	}
}

func TestPublicAPIDeterminism(t *testing.T) {
	run := func() time.Duration {
		sim := NewSimulation(Options{Servers: 2, Seed: 21})
		table := sim.CreateTable("t")
		sim.BulkLoad(table, 500, 1024)
		sim.Spawn("app", func(c *Client) {
			_ = c.RunWorkload(table, "a", 500, 2000, 0, 1)
		})
		sim.Run()
		return sim.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different virtual durations: %v vs %v\nsomething outside (scenario, seed) leaked into the run; see LINTS.md for the usual suspects and the rcvet analyzers that catch them", a, b)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := RunExperiment("nope", 1, 1)
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v; want errors.Is(err, ErrUnknownExperiment)", err)
	}
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("experiments = %d, want >= 20", len(ids))
	}
}

// TestMultiReadBatchThroughput is the PR's acceptance benchmark in test
// form: batch-16 reads must deliver at least 2x the ops/sec of 16
// sequential Read calls (same keys, same cluster, simulated time).
func TestMultiReadBatchThroughput(t *testing.T) {
	const rounds, batch = 50, 16
	measure := func(batched bool) time.Duration {
		sim := NewSimulation(Options{Servers: 4, Seed: 13})
		table := sim.CreateTable("t")
		sim.BulkLoad(table, 1000, 1024)
		var elapsed time.Duration
		sim.Spawn("reader", func(c *Client) {
			start := c.Now()
			for r := 0; r < rounds; r++ {
				keys := make([][]byte, batch)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("user%010d", (r*batch+i)%1000))
				}
				if batched {
					for _, res := range c.MultiRead(table, keys...) {
						if res.Err != nil || res.ValueLen != 1024 {
							t.Errorf("multiread: len=%d err=%v", res.ValueLen, res.Err)
							return
						}
					}
				} else {
					for _, key := range keys {
						if n, err := c.ReadLen(table, key); err != nil || n != 1024 {
							t.Errorf("read: n=%d err=%v", n, err)
							return
						}
					}
				}
			}
			elapsed = c.Now() - start
		})
		sim.Run()
		return elapsed
	}
	seq := measure(false)
	bat := measure(true)
	if bat <= 0 || seq <= 0 {
		t.Fatalf("durations: seq=%v batch=%v", seq, bat)
	}
	speedup := float64(seq) / float64(bat)
	t.Logf("sequential %v, batch-16 %v, speedup %.1fx", seq, bat, speedup)
	if speedup < 2 {
		t.Fatalf("batch-16 speedup = %.2fx, want >= 2x", speedup)
	}
}

// TestPublicAPIBatchedWorkload drives the batched and pipelined YCSB
// modes end to end through the public surface.
func TestPublicAPIBatchedWorkload(t *testing.T) {
	sim := NewSimulation(Options{Servers: 4, Seed: 17})
	table := sim.CreateTable("usertable")
	sim.BulkLoad(table, 1000, 1024)
	sim.Spawn("batched", func(c *Client) {
		if err := c.RunWorkloadOpts(table, "a", WorkloadOptions{
			Records: 1000, Requests: 2000, Seed: 1, BatchSize: 16,
		}); err != nil {
			t.Errorf("batched workload: %v", err)
		}
	})
	sim.Spawn("pipelined", func(c *Client) {
		if err := c.RunWorkloadOpts(table, "b", WorkloadOptions{
			Records: 1000, Requests: 2000, Seed: 2, Window: 8,
		}); err != nil {
			t.Errorf("pipelined workload: %v", err)
		}
	})
	sim.Run()
	rep := sim.EnergyReport()
	if rep.Ops != 4000 {
		t.Fatalf("ops = %d, want 4000", rep.Ops)
	}
}

// TestPublicAPIMultiWriteDurable checks batched writes survive a master
// crash when replicated — MultiWrite is durable, not a consistency
// shortcut.
func TestPublicAPIMultiWriteDurable(t *testing.T) {
	sim := NewSimulation(Options{Servers: 4, ReplicationFactor: 2, Seed: 19})
	table := sim.CreateTable("t")
	lost := 0
	sim.Spawn("app", func(c *Client) {
		ops := make([]WriteOp, 64)
		for i := range ops {
			ops[i] = WriteOp{Key: []byte(fmt.Sprintf("key%04d", i)), ValueLen: 512}
		}
		for _, err := range c.MultiWrite(table, ops) {
			if err != nil {
				t.Errorf("multiwrite: %v", err)
				return
			}
		}
		sim.KillServer(2)
		for sim.RecoveryCount() == 0 {
			c.Sleep(500 * time.Millisecond)
			if c.Now() > 5*time.Minute {
				t.Error("recovery never completed")
				return
			}
		}
		for i := range ops {
			if n, err := c.ReadLen(table, ops[i].Key); err != nil || n != 512 {
				lost++
			}
		}
	})
	sim.Run()
	if lost != 0 {
		t.Fatalf("%d records unreadable after crash", lost)
	}
}

// TestPublicAPIReplicatedValuesSurviveCrash: the bytes of a replicated
// write, single or batched, are what recovery replays, so after a master
// crash every key reads back its value, not a value of the right length
// with no bytes. Server 0 owns 30 of the 40 keys (FNV-1a keeps the high
// bits of short keys close).
func TestPublicAPIReplicatedValuesSurviveCrash(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			sim := NewSimulation(Options{Servers: 4, ReplicationFactor: 2, Seed: 2})
			table := sim.CreateTable("t")
			ops := make([]WriteOp, 40)
			for i := range ops {
				ops[i] = WriteOp{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("value %02d: forty bytes, all of them real", i))}
			}
			var errs []error
			wrong := 0
			sim.Spawn("app", func(c *Client) {
				if batched {
					errs = c.MultiWrite(table, ops)
				} else {
					for _, op := range ops {
						errs = append(errs, c.Write(table, op.Key, op.Value))
					}
				}
				sim.KillServer(0)
				for _, op := range ops {
					if v, err := c.Read(table, op.Key); err != nil || string(v) != string(op.Value) {
						t.Logf("%s read back %d bytes %q (%v)", op.Key, len(v), v, err)
						wrong++
					}
				}
			})
			sim.Run()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("write %s: %v", ops[i].Key, err)
				}
			}
			if sim.RecoveryCount() == 0 {
				t.Fatal("server 0 crashed and nothing was recovered")
			}
			if wrong != 0 {
				t.Fatalf("%d of %d keys read back without their value after server 0 crashed", wrong, len(ops))
			}
		})
	}
}
