package realnode

import (
	"context"
	"sync"
	"time"
)

// deadline is one RPC attempt's context: a deadline and nothing else.
// Nobody in this package ever cancels an attempt — a context here only
// says when to stop waiting — so the five objects the context package's
// WithTimeout builds per attempt (the timerCtx, two closures, the runtime
// timer and the lazily made Done channel) are replaced by one pooled
// object whose channel and timer are made once and re-armed per attempt.
//
// The rule for every RPC this package issues: a per-attempt deadline
// comes from newDeadline, never from WithTimeout. Nothing may derive from
// a deadline (a child context would keep watching Done after release),
// and nothing may use one after release: release sits where cancel
// would, after the last goroutine given the context has reported back.
type deadline struct {
	done  chan struct{} // closed by the timer; never reopened
	timer *time.Timer   // AfterFunc(fire), re-armed with Reset per attempt
	at    time.Time
}

var deadlinePool sync.Pool

// newDeadline returns a context whose Done closes d from now.
func newDeadline(d time.Duration) *deadline {
	at := time.Now().Add(d) // read before arming: the timer never fires ahead of it
	dl, _ := deadlinePool.Get().(*deadline)
	if dl == nil {
		dl = &deadline{done: make(chan struct{})}
		dl.timer = time.AfterFunc(d, dl.fire)
	} else {
		// A pooled object's timer was stopped before it fired (release),
		// so its done is open and no fire is pending.
		dl.timer.Reset(d)
	}
	dl.at = at
	return dl
}

func (d *deadline) fire() { close(d.done) }

// release ends the attempt. The object is recycled only if its timer had
// not fired: Stop reporting true means fire will never run for this
// arming, so done stays open for the next user. A fired object is
// dropped, so a closed done is never handed out again.
func (d *deadline) release() {
	if d.timer.Stop() {
		deadlinePool.Put(d)
	}
}

// Deadline implements context.Context.
func (d *deadline) Deadline() (time.Time, bool) { return d.at, true }

// Done implements context.Context: it closes at the deadline.
func (d *deadline) Done() <-chan struct{} { return d.done }

// Err implements context.Context: nil until the deadline, then
// context.DeadlineExceeded.
func (d *deadline) Err() error {
	select {
	case <-d.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// Value implements context.Context; a deadline carries no values.
func (d *deadline) Value(any) any { return nil }
