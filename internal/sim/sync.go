package sim

// This file provides blocking synchronization primitives for procs. All of
// them wake waiters through the event queue, preserving determinism.

// fifo is the ring buffer under every item and waiter list in this file.
// It allocates only to grow: sliding a slice head (s = s[1:]) gives its
// capacity away, so the next append reallocates — once per operation in a
// steady push/pop cycle. The capacity is a power of two so that positions
// wrap with a mask.
type fifo[T any] struct {
	buf     []T
	head, n int // position of the oldest element, element count
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		grown := make([]T, max(4, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// pop removes the oldest element.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero // release for GC
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Queue is an unbounded FIFO queue that procs can block on. Pushing may be
// done from callbacks or procs; popping only from procs. Waiters are woken
// in the order they parked.
type Queue[T any] struct {
	eng     *Engine
	items   fifo[T]
	waiting fifo[*Proc]
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.n }

// Waiters returns the number of procs blocked in Pop.
func (q *Queue[T]) Waiters() int { return q.waiting.n }

// Push appends v and wakes one waiting proc, if any.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	if q.waiting.n > 0 {
		q.eng.scheduleProcAt(q.eng.now, q.waiting.pop())
	}
}

// TryPop removes and returns the head of the queue without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.n == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Pop removes and returns the head of the queue, blocking the proc until an
// item is available.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiting.push(p)
		p.park()
	}
}

// Mutex is a FIFO mutual-exclusion lock with direct hand-off: Unlock passes
// ownership to the longest waiter, so the lock cannot be stolen. A waiter
// is a proc parked in Lock or a callback queued by LockNotify; both wait
// in one FIFO.
type Mutex struct {
	eng     *Engine
	locked  bool
	waiting fifo[mutexWaiter]
}

// mutexWaiter is a proc parked in Lock, or the callback that LockNotify
// runs in its place when p is nil.
type mutexWaiter struct {
	p  *Proc
	fn func()
}

// NewMutex returns an unlocked mutex bound to e.
func NewMutex(e *Engine) *Mutex { return &Mutex{eng: e} }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }

// Waiters returns the number of procs blocked in Lock and callbacks
// queued by LockNotify.
func (m *Mutex) Waiters() int { return m.waiting.n }

// Lock acquires the mutex, blocking the proc until it is available.
func (m *Mutex) Lock(p *Proc) {
	if !m.locked {
		m.locked = true
		return
	}
	m.waiting.push(mutexWaiter{p: p})
	p.park()
	// Ownership was handed to us by Unlock; m.locked is still true.
}

// LockNotify is Lock for a caller that is not a proc. A free mutex is
// taken at once and LockNotify reports true; fn does not run. Otherwise fn
// queues behind the waiters already there, LockNotify reports false, and
// once the mutex is handed over fn runs holding it, in the event that
// would resume a proc parked in Lock: Unlock schedules it with the
// sequence number it draws for that proc. A caller binds fn once, and
// waiting then allocates nothing.
func (m *Mutex) LockNotify(fn func()) bool {
	if !m.locked {
		m.locked = true
		return true
	}
	m.waiting.push(mutexWaiter{fn: fn})
	return false
}

// Unlock releases the mutex, handing it directly to the next waiter if one
// exists. It may be called from callbacks as well as procs.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex")
	}
	if m.waiting.n > 0 {
		if w := m.waiting.pop(); w.p != nil {
			m.eng.scheduleProcAt(m.eng.now, w.p)
		} else {
			m.eng.ScheduleAt(m.eng.now, w.fn)
		}
		return
	}
	m.locked = false
}

// futureWaiter is one proc parked on a future, or the callback that runs
// in its place (NotifyTimeout), with its timeout timer when the wait has a
// deadline.
type futureWaiter struct {
	p  *Proc
	fn func()
	tm *timer
}

// Future is a write-once value that procs can wait on. It is the basis of
// RPC replies, which have exactly one waiter: that waiter and its deadline
// timer are stored in the future itself, so waiting allocates nothing.
type Future[T any] struct {
	eng   *Engine
	set   bool
	setAt Time
	val   T
	// first is the longest-parked waiter and more the later ones in
	// arrival order. A proc takes first only when nobody is waiting at
	// all, so first followed by more is always arrival order, which is the
	// order Set wakes in.
	first futureWaiter
	more  []futureWaiter
	// tm is the deadline of first; waiters in more allocate theirs.
	tm timer
}

// NewFuture returns an unset future bound to e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{eng: e} }

// IsSet reports whether the future has a value.
func (f *Future[T]) IsSet() bool { return f.set }

// TryGet returns the value and true once the future is set, and false
// before.
func (f *Future[T]) TryGet() (T, bool) { return f.val, f.set }

// Reset returns the future to its unset state so that it can be reused,
// exactly as if NewFuture had just returned it. The caller must be sure
// that nothing will Set it for its previous use any more. Resetting a
// future a proc or callback is still waiting on panics.
func (f *Future[T]) Reset() {
	if !f.idle() {
		panic("sim: Reset of a Future with a waiter")
	}
	*f = Future[T]{eng: f.eng}
}

// Set stores the value and wakes all waiters, cancelling their timeout
// timers. Setting twice panics: a future is single-assignment by design.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.setAt = f.eng.now
	f.val = v
	if f.first.waits() {
		f.wake(f.first)
	}
	for _, w := range f.more {
		f.wake(w)
	}
	f.first, f.more = futureWaiter{}, nil
}

// wake schedules w at the current instant: its proc, or its callback with
// the same sequence number the proc would have drawn.
func (f *Future[T]) wake(w futureWaiter) {
	if w.tm != nil {
		f.eng.cancelTimer(w.tm)
	}
	if w.fn != nil {
		f.eng.ScheduleAt(f.eng.now, w.fn)
		return
	}
	f.eng.scheduleProcAt(f.eng.now, w.p)
}

// ResolvedAt returns the virtual time Set was called, or zero while the
// future is unset. A caller that polls Done/IsSet and collects the value
// later can attribute the completion to its true instant rather than the
// observation instant.
func (f *Future[T]) ResolvedAt() Time { return f.setAt }

// waits reports whether w still waits: a proc until it is woken or drops
// itself, a callback until Set wakes it or its deadline has run it.
func (w futureWaiter) waits() bool { return w.p != nil || w.fn != nil && w.tm.idx >= 0 }

// idle reports whether no proc or callback is waiting.
func (f *Future[T]) idle() bool { return !f.first.waits() && len(f.more) == 0 }

func (f *Future[T]) addWaiter(w futureWaiter) {
	if f.idle() {
		f.first = w
	} else {
		f.more = append(f.more, w)
	}
}

// Get blocks until the future is set and returns its value.
func (f *Future[T]) Get(p *Proc) T {
	for !f.set {
		f.addWaiter(futureWaiter{p: p})
		p.park()
	}
	return f.val
}

// GetTimeout blocks until the future is set or d elapses. ok is false on
// timeout. The deadline is a cancellable timer: when the value arrives in
// time — the overwhelmingly common case — Set removes the timer, so no
// stale deadline event lingers in the engine's queues.
func (f *Future[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	if f.set {
		return f.val, true
	}
	deadline := f.eng.now.Add(d)
	tm := &f.tm
	if !f.idle() {
		tm = new(timer)
	}
	f.eng.scheduleTimer(tm, deadline, p, nil)
	for !f.set {
		f.addWaiter(futureWaiter{p: p, tm: tm})
		p.park()
		if !f.set && f.eng.now >= deadline {
			// The timer fired. Remove ourselves from the wait list so a
			// later Set does not try to resume a proc that has moved on.
			f.dropWaiter(p)
			var zero T
			return zero, false
		}
	}
	// The value arrived first; Set cancelled the timer.
	return f.val, true
}

// NotifyTimeout is GetTimeout for a caller that is not a proc: fn runs
// once the future is set, or once d elapses, and reads which with TryGet.
// Each event is the one GetTimeout would resume its proc from: Set
// schedules fn at the current instant, and the deadline is a cancellable
// timer armed now that runs fn in place of the proc, so every sequence
// number is drawn where GetTimeout draws it. Once the deadline has run fn,
// fn no longer waits: a late Set runs nothing. The future must be unset,
// with nobody waiting on it; a caller binds fn once, and waiting then
// allocates nothing.
func (f *Future[T]) NotifyTimeout(d Duration, fn func()) {
	if f.set || !f.idle() {
		panic("sim: NotifyTimeout on a set or waited Future")
	}
	f.eng.scheduleTimer(&f.tm, f.eng.now.Add(d), nil, fn)
	f.first = futureWaiter{fn: fn, tm: &f.tm}
}

func (f *Future[T]) dropWaiter(p *Proc) {
	if f.first.p == p {
		f.first = futureWaiter{}
		return
	}
	for i, w := range f.more {
		if w.p == p {
			f.more = append(f.more[:i], f.more[i+1:]...)
			return
		}
	}
}

// WaitGroup counts outstanding work, like sync.WaitGroup but in simulated
// time.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiting []*Proc
}

// NewWaitGroup returns a WaitGroup bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, w := range wg.waiting {
			wg.eng.scheduleProcAt(wg.eng.now, w)
		}
		wg.waiting = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiting = append(wg.waiting, p)
		p.park()
	}
}
