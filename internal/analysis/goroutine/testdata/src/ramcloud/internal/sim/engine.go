// engine.go is the proc-scheduler fixture: scope.ProcScheduler exempts
// exactly this file (package sim, basename engine.go) from the iter.Pull
// rule, so the coroutine behind each proc needs no annotation. The bare-go
// ban still applies here.
package sim

import "iter"

func spawnProc(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), kill func()) {
	return iter.Pull(body)
}

func spawnThread(fn func()) {
	go fn() // want `bare go statement in a deterministic package`
}
