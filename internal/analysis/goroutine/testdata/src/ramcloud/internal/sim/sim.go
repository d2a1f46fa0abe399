// Package sim is a goroutine fixture standing in for the real engine
// package (the analyzer keys on the import path, not the contents).
package sim

import (
	"iter"
	coro "iter"
)

func spawn(fn func()) {
	go fn() // want `bare go statement in a deterministic package`
}

func spawnAllowed(fn func(), done chan struct{}) {
	//rcvet:allow goroutine fixture stand-in for the scheduler: parks immediately and hands control back before any simulated state is touched
	go fn()
	<-done
}

func spawnUnjustified(fn func()) {
	//rcvet:allow goroutine
	go fn() // want `directive needs a justification` `bare go statement in a deterministic package`
}

// A coroutine made outside engine.go is a scheduler of its own, under any
// import name and for either arity.
func pull(seq iter.Seq[int]) {
	next, stop := iter.Pull(seq) // want `iter.Pull creates a coroutine the event loop does not schedule`
	defer stop()
	next()
}

func pull2(seq coro.Seq2[int, int]) {
	next, stop := coro.Pull2(seq) // want `iter.Pull2 creates a coroutine the event loop does not schedule`
	defer stop()
	next()
}

func pullAllowed(seq iter.Seq[int]) {
	//rcvet:allow goroutine fixture stand-in for a justified coroutine: drained to completion before any simulated state is touched
	next, stop := iter.Pull(seq)
	defer stop()
	next()
}
