// Package analysis assembles the rcvet lint suite: four custom static
// checks that enforce, at vet time, the invariants every rendered
// figure in this repo rests on — determinism (a scenario replays
// byte-identically at any seed/-j combination) and the sealed wire
// protocol. LINTS.md at the repo root documents each analyzer, its
// rationale and the //rcvet:allow suppression syntax.
//
// The suite runs under `go vet -vettool` via cmd/rcvet:
//
//	go build -o rcvet ./cmd/rcvet
//	go vet -vettool=$(pwd)/rcvet ./...
package analysis

import (
	"ramcloud/internal/analysis/detnow"
	"ramcloud/internal/analysis/framework"
	"ramcloud/internal/analysis/goroutine"
	"ramcloud/internal/analysis/maporder"
	"ramcloud/internal/analysis/wireexhaustive"
)

// Suite returns every rcvet analyzer, in reporting order.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		detnow.Analyzer,
		goroutine.Analyzer,
		maporder.Analyzer,
		wireexhaustive.Analyzer,
	}
}
