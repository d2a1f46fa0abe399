// Command rcvet is the vet tool enforcing this repo's determinism and
// protocol invariants (see LINTS.md). Run it through go vet so the go
// command supplies per-package type information:
//
//	go build -o /tmp/rcvet ./cmd/rcvet
//	go vet -vettool=/tmp/rcvet ./...
//
// Analyzers: detnow (no wall clock / global randomness in simulation
// packages), goroutine (no bare go statements in deterministic
// packages), maporder (no order-dependent work in range-over-map
// bodies), wireexhaustive (sealed wire messages decode and dispatch
// exhaustively).
package main

import (
	"ramcloud/internal/analysis"
	"ramcloud/internal/analysis/framework/unit"
)

func main() {
	unit.Main(analysis.Suite()...)
}
