// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. Two kinds of activity exist:
//
//   - Callback events scheduled with Schedule/ScheduleAt. They run on the
//     engine goroutine and must never block.
//   - Processes ("procs") spawned with Go. Each proc is a runtime
//     coroutine (iter.Pull): resuming one is a direct switch from the
//     engine goroutine into the proc and parking is the switch back, with
//     no trip through the Go scheduler. Exactly one of them (the engine or
//     a single proc) ever runs, so the simulation is deterministic and
//     free of data races by construction. Nothing that runs a simulation
//     may call runtime.LockOSThread: the runtime throws on a coroutine
//     switch between goroutines whose thread-lock states differ.
//
// Procs block in simulated time using Sleep and the synchronization
// primitives in this package (Queue, Mutex, Future, WaitGroup).
// All wake-ups are funneled through the event queue, so execution order is a
// pure function of the seed and the program. A callback may wait on a
// Future too (NotifyTimeout), or for a Mutex (LockNotify): it is scheduled
// in the events, and with the sequence numbers, that would resume a proc
// waiting there. The one
// exception draws no event at all: a callback may Resume a proc parked in
// Suspend, which then runs inline, as part of that callback's event.
//
// Hot-path design: the event queue is a 4-ary min-heap of plain event
// structs owned by the engine (no container/heap, so no `any` boxing per
// push/pop), events that merely resume a parked proc carry the *Proc
// directly instead of a heap-allocated closure, and events scheduled for
// the current instant — the dominant pattern (queue wake-ups, future
// resolution, zero-delay callbacks) — bypass the heap through a FIFO ring.
// Both paths preserve exact (time, sequence) execution order, so the
// optimization is invisible to simulation results.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
)

// event is one queue entry. When p is non-nil the event resumes that proc
// (the allocation-free wake-up path); otherwise fn is invoked.
type event struct {
	t   Time
	seq uint64
	fn  func()
	p   *Proc
}

// eventLess orders events by (time, sequence).
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// timer is a cancellable deadline that resumes p, or runs fn when p is
// nil. Timers live in their own small heap so the (usually far-future,
// usually cancelled) RPC timeouts of CallTimeout don't pollute the main
// event heap: without cancellation a closed loop drags thousands of stale
// deadline events through every sift. idx is the timer's position in the
// heap, -1 once fired or cancelled.
type timer struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
	idx int
}

// Counts is what an engine has run so far. Each count costs one increment
// where it happens.
type Counts struct {
	Events    uint64 // events taken off the queues, timers included
	Resumes   uint64 // switches into a proc, by an event or by Resume
	Callbacks uint64 // events that ran a callback
	Seq       uint64 // sequence numbers drawn
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct one with New.
type Engine struct {
	now Time
	seq uint64

	// heap is a 4-ary min-heap of future events ordered by (t, seq).
	heap []event
	// nowQ is a FIFO ring of events scheduled for the current instant.
	// Every entry has t == now and was sequenced after all pending heap
	// events at this time, so ring order is (t, seq) order. The clock can
	// only advance once the ring is drained.
	nowQ    []event
	nowHead int

	// timers is a 4-ary min-heap of cancellable proc-resume deadlines,
	// ordered by (t, seq) like the event heap. The run loop merges the
	// three queues into one (t, seq) order, so timers interleave with
	// events exactly as if they shared a heap.
	timers []*timer

	rng     *rand.Rand
	procs   map[*Proc]struct{}
	stopped bool

	// running is the proc the engine has switched into, nil while a
	// callback (or nothing) runs.
	running *Proc

	counts Counts
}

// New returns an engine whose randomness is derived entirely from seed.
func New(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Counts returns what the engine has run so far.
func (e *Engine) Counts() Counts {
	c := e.counts
	c.Seq = e.seq
	return c
}

// Rand returns the engine's seeded random source. It must only be used from
// engine context (callbacks and procs), never from outside Run.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after d of simulated time. Negative durations are
// clamped to zero.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at time t. Times in the past are clamped to now.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if t == e.now {
		e.nowQ = append(e.nowQ, event{t: t, seq: e.seq, fn: fn})
		return
	}
	e.heapPush(event{t: t, seq: e.seq, fn: fn})
}

// scheduleProcAt resumes p at time t (clamped to now). It is the wake-up
// path of Sleep and every synchronization primitive: the proc pointer rides
// in the event itself, so no closure is allocated.
func (e *Engine) scheduleProcAt(t Time, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if t == e.now {
		e.nowQ = append(e.nowQ, event{t: t, seq: e.seq, p: p})
		return
	}
	e.heapPush(event{t: t, seq: e.seq, p: p})
}

// heapPush inserts ev into the 4-ary min-heap. The sift logic is mirrored
// by timerPush/timerPop below; the two heaps stay separate on purpose —
// events are stored by value with no index bookkeeping (the hot path),
// timers need pointer identity plus idx maintenance for cancellation.
// A change to the sift arithmetic here must be applied there too.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the minimum event.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure for GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(&h[j], &h[m]) {
					m = j
				}
			}
			if !eventLess(&h[m], &last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.heap = h
	return top
}

// scheduleTimer arms tm, storage the caller owns, as a cancellable resume
// of p, or call of fn when p is nil, at time t (clamped to now). tm must
// not be pending.
func (e *Engine) scheduleTimer(tm *timer, t Time, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	*tm = timer{t: t, seq: e.seq, p: p, fn: fn}
	e.timerPush(tm)
}

// cancelTimer removes a pending timer. Firing and cancellation are
// idempotent: a timer that already fired or was cancelled is left alone.
func (e *Engine) cancelTimer(tm *timer) {
	i := tm.idx
	if i < 0 {
		return
	}
	h := e.timers
	n := len(h) - 1
	tm.idx = -1
	if i != n {
		h[i] = h[n]
		h[i].idx = i
	}
	h[n] = nil
	e.timers = h[:n]
	if i != n {
		// The element moved into slot i may violate heap order in either
		// direction: sift up first, then down if it did not move.
		if e.timerUp(i) == i {
			e.timerFix(i)
		}
	}
}

// timerUp restores heap order upward from index i, returning the final
// position.
func (e *Engine) timerUp(i int) int {
	h := e.timers
	for i > 0 {
		parent := (i - 1) >> 2
		if !timerLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].idx = i
		h[parent].idx = parent
		i = parent
	}
	return i
}

// timerLess orders timers by (time, sequence).
func timerLess(a, b *timer) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// timerPush inserts tm into the 4-ary timer heap.
func (e *Engine) timerPush(tm *timer) {
	e.timers = append(e.timers, tm)
	tm.idx = len(e.timers) - 1
	e.timerUp(tm.idx)
}

// timerPop removes and returns the minimum timer.
func (e *Engine) timerPop() *timer {
	h := e.timers
	top := h[0]
	top.idx = -1
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].idx = 0
	}
	h[n] = nil
	e.timers = h[:n]
	if n > 1 {
		e.timerFix(0)
	}
	return top
}

// timerFix restores heap order downward from index i.
func (e *Engine) timerFix(i int) {
	h := e.timers
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		h[i].idx = i
		h[m].idx = m
		i = m
	}
}

// nowPop removes and returns the head of the current-instant ring.
func (e *Engine) nowPop() event {
	ev := e.nowQ[e.nowHead]
	e.nowQ[e.nowHead] = event{} // release the closure for GC
	e.nowHead++
	if e.nowHead == len(e.nowQ) {
		e.nowQ = e.nowQ[:0]
		e.nowHead = 0
	}
	return ev
}

// Run executes events until the queue is empty or Stop is called. Procs
// still parked when it returns stay parked; Shutdown reaps them.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= horizon. The clock is left at
// min(horizon, time of last event run). Procs still parked when the run
// finishes remain parked; call Shutdown (or let Run's horizon be maximal) to
// reap them.
func (e *Engine) RunUntil(horizon Time) {
	for !e.stopped {
		// Select the (t, seq)-minimum across the three queues: the
		// current-instant ring (FIFO in seq), the event heap and the
		// timer heap. Merging here preserves the exact execution order a
		// single queue would produce.
		var t Time
		var seq uint64
		src := 0 // 0: none, 1: ring, 2: heap, 3: timers
		if e.nowHead < len(e.nowQ) {
			t, seq, src = e.nowQ[e.nowHead].t, e.nowQ[e.nowHead].seq, 1
		}
		if len(e.heap) > 0 {
			if h := &e.heap[0]; src == 0 || h.t < t || (h.t == t && h.seq < seq) {
				t, seq, src = h.t, h.seq, 2
			}
		}
		if len(e.timers) > 0 {
			if tm := e.timers[0]; src == 0 || tm.t < t || (tm.t == t && tm.seq < seq) {
				t, src = tm.t, 3
			}
		}
		if src == 0 {
			return
		}
		if t > horizon {
			e.now = horizon
			return
		}
		var ev event
		switch src {
		case 1:
			ev = e.nowPop()
		case 2:
			ev = e.heapPop()
		case 3:
			tm := e.timerPop()
			ev = event{t: tm.t, seq: tm.seq, p: tm.p, fn: tm.fn}
		}
		e.now = ev.t
		e.counts.Events++
		if ev.p != nil {
			e.resume(ev.p)
		} else {
			e.counts.Callbacks++
			ev.fn()
		}
	}
}

// resume switches into p until it parks or finishes.
func (e *Engine) resume(p *Proc) {
	e.counts.Resumes++
	e.running = p
	p.next()
	e.running = nil
}

// Resume runs p, parked in Suspend, at once and inline: it returns when p
// parks again or finishes. It draws no sequence number, so p's code runs
// as part of the calling event, exactly where that event's own code would
// have run it. It must be called from engine context, a callback; it
// panics when called from a proc or for a proc that is not suspended.
func (e *Engine) Resume(p *Proc) {
	if e.running != nil {
		panic(fmt.Sprintf("sim: Resume(%q) from proc %q", p.name, e.running.name))
	}
	if !p.suspended {
		panic(fmt.Sprintf("sim: Resume of proc %q, which is not suspended", p.name))
	}
	p.suspended = false
	e.resume(p)
}

// Stop halts Run after the current event completes. Pending events are
// retained but not executed.
func (e *Engine) Stop() { e.stopped = true }

// KeyedSeqBit marks a caller-owned sequence number (ScheduleKeyedAt).
// Keyed events sort after every engine-drawn sequence at the same instant:
// the engine's counter starts at zero and can never reach 2^63, so the two
// spaces are disjoint by construction.
const KeyedSeqBit = uint64(1) << 63

// ScheduleKeyedAt schedules fn at a strictly future time t with an
// explicit caller-owned sequence key in place of the engine's counter. The
// fabric stamps every delivery with a key derived from the sending node,
// so deliveries landing on the same nanosecond run in sender order rather
// than in the order their Sends happened to be issued. seq must have
// KeyedSeqBit set and (t, seq) must be unique.
func (e *Engine) ScheduleKeyedAt(t Time, seq uint64, fn func()) {
	if seq&KeyedSeqBit == 0 {
		panic("sim: keyed sequence number missing KeyedSeqBit")
	}
	if t <= e.now {
		panic(fmt.Sprintf("sim: keyed event at t=%v not beyond now=%v", t, e.now))
	}
	e.heapPush(event{t: t, seq: seq, fn: fn})
}

// Shutdown kills every live proc: one parked mid-body unwinds through its
// deferred functions, one that never got its first resume is discarded
// without running. It must be called from outside engine context (i.e. not
// from a callback or proc), typically after Run returns. After Shutdown the
// engine must not be reused.
func (e *Engine) Shutdown() {
	e.stopped = true
	for p := range e.procs {
		p.killed = true
		p.stop()
		// stop does not enter the body of a coroutine that never started,
		// so the body's own delete cannot be relied on.
		delete(e.procs, p)
	}
}

// LiveProcs reports the number of procs that have been spawned and have not
// yet finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// killSentinel unwinds a killed proc's stack.
type killSentinel struct{}

// Proc is a simulated process. A Proc's methods must only be called from the
// proc's own body (i.e. inside the function passed to Go).
type Proc struct {
	name string
	eng  *Engine
	// next resumes the coroutine until it parks or finishes and stop
	// unwinds it (iter.Pull's pair); yield, valid once the body has
	// started, switches back to whichever goroutine called next.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	killed bool
	// suspended is set while the proc is parked in Suspend.
	suspended bool
}

// Name returns the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns this proc.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Go spawns a new proc that begins executing fn at the current simulated
// time (after already-scheduled events at this time). A panic in fn
// surfaces from the run loop, on the goroutine driving the engine, with the
// proc's name and the virtual time attached.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{name: name, eng: e}
	e.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			delete(e.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(fmt.Sprintf("sim: panic in proc %q at t=%v: %v", p.name, e.now, r))
				}
			}
		}()
		fn(p)
	})
	e.scheduleProcAt(e.now, p)
	return p
}

// park switches back to the engine until the proc is resumed. A killed
// proc never parks again — its deferred cleanup may reach here while the
// stack unwinds — and a park cut short by Shutdown starts that unwinding.
func (p *Proc) park() {
	if p.killed || !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// Suspend parks the proc with no wake-up scheduled: only Engine.Resume
// runs it again. It suits a proc that stands behind engine callbacks and
// is needed only now and then: a callback resumes it inline when it is.
func (p *Proc) Suspend() {
	p.suspended = true
	p.park()
}

// Sleep suspends the proc for d of simulated time (none if d is negative).
func (p *Proc) Sleep(d Duration) {
	p.eng.scheduleProcAt(p.eng.now.Add(d), p)
	p.park()
}
