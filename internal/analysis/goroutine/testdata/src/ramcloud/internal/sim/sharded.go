// sharded.go is the lane-scheduler fixture: scope.LaneScheduler exempts
// exactly this file (package sim, basename sharded.go), so its bare go
// statements need neither a diagnostic nor an //rcvet:allow annotation.
package sim

import "iter"

func startWorkers(n int, run func(i int)) []chan int {
	start := make([]chan int, n)
	for i := 1; i < n; i++ {
		i := i
		ch := make(chan int)
		start[i] = ch
		go func() {
			for range ch {
				run(i)
			}
		}()
	}
	return start
}

// The lane-scheduler exemption covers go statements only.
func laneCoroutine(seq iter.Seq[int]) {
	_, stop := iter.Pull(seq) // want `iter.Pull creates a coroutine the event loop does not schedule`
	stop()
}
