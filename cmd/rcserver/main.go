// Command rcserver runs one real-transport storage server: the
// log-structured store (hashtable index over an append-only log) behind a
// TCP listener, enlisted with an rccoord coordinator. Tablets are assigned
// by the coordinator; the server answers read/write/delete/multi-op
// requests for the ranges it owns and StatusWrongServer for everything
// else. It is also a backup: it answers the backup protocol (open,
// replicate, close and free a segment replica, the inventory, and the
// recovery fetch by key-hash range) from replicas it holds in memory,
// though no master replicates to it yet.
//
// Example:
//
//	rcserver -coord 127.0.0.1:7070 -listen 127.0.0.1:0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ramcloud/internal/realnode"
	"ramcloud/internal/transport"
)

func main() {
	var (
		coord  = flag.String("coord", "127.0.0.1:7070", "coordinator address")
		listen = flag.String("listen", "127.0.0.1:0", "listen address (:0 picks a port)")
		mem    = flag.Int64("memory", 1<<30, "advertised memory bytes")
	)
	flag.Parse()

	srv := realnode.NewServer(&transport.TCP{}, *coord, realnode.ServerConfig{MemoryBytes: *mem})
	if err := srv.Start(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "rcserver: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rcserver: id %d listening on %s (coordinator %s)\n", srv.ID(), srv.Addr(), *coord)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	reads, writes, deletes, wrong := srv.Counters()
	fmt.Printf("rcserver: shutting down (reads=%d writes=%d deletes=%d wrong-server=%d objects=%d)\n",
		reads, writes, deletes, wrong, srv.Objects())
	srv.Stop()
}
