// Command rccoord runs the real-transport cluster coordinator: servers
// enlist with it over TCP, clients fetch the tablet map and server list
// from it, and it probes servers for liveness, splitting a dead server's
// tablets across the survivors as the simulator's recovery does, with
// nothing to replay (see internal/realnode).
//
// Example:
//
//	rccoord -listen 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ramcloud/internal/realnode"
	"ramcloud/internal/transport"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "listen address")
		interval = flag.Duration("ping-interval", 500*time.Millisecond, "liveness probe period")
		misses   = flag.Int("ping-misses", 3, "consecutive failed probes before a server is declared dead")
	)
	flag.Parse()

	coord := realnode.NewCoordinator(&transport.TCP{}, realnode.CoordConfig{
		PingInterval:  *interval,
		MissThreshold: *misses,
	})
	if err := coord.Start(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "rccoord: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rccoord: listening on %s\n", coord.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("rccoord: shutting down")
	coord.Stop()
}
