package ramcloud

import (
	"fmt"
	"testing"
)

// Micro-benchmarks of the storage data structures (real wall-clock
// performance of this library, not simulated time).

func BenchmarkPublicAPIWritePath(b *testing.B) {
	sim := NewSimulation(Options{Servers: 3, ReplicationFactor: 0, Seed: 1})
	table := sim.CreateTable("bench")
	n := b.N
	sim.Spawn("bench", func(c *Client) {
		key := []byte("user0000000001")
		for i := 0; i < n; i++ {
			if err := c.WriteLen(table, key, 1024); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	sim.Run()
}

// BenchmarkPublicAPIMultiReadPath measures wall-clock ns per simulated op
// when ops ride 16 to an RPC. Compare with BenchmarkPublicAPIReadPath: the
// engine processes far fewer events per op, so experiment regeneration
// speeds up in wall clock too, not only in simulated time.
func BenchmarkPublicAPIMultiReadPath(b *testing.B) {
	sim := NewSimulation(Options{Servers: 3, Seed: 1})
	table := sim.CreateTable("bench")
	sim.BulkLoad(table, 1000, 1024)
	n := b.N
	sim.Spawn("bench", func(c *Client) {
		keys := make([][]byte, 16)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("user%010d", (i*61)%1000))
		}
		for done := 0; done < n; done += len(keys) {
			for _, r := range c.MultiRead(table, keys...) {
				if r.Err != nil {
					b.Error(r.Err)
					return
				}
			}
		}
	})
	b.ResetTimer()
	sim.Run()
}

func BenchmarkPublicAPIReadPath(b *testing.B) {
	sim := NewSimulation(Options{Servers: 3, Seed: 1})
	table := sim.CreateTable("bench")
	sim.BulkLoad(table, 1000, 1024)
	n := b.N
	sim.Spawn("bench", func(c *Client) {
		key := []byte("user0000000007")
		for i := 0; i < n; i++ {
			if _, err := c.ReadLen(table, key); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	sim.Run()
}
