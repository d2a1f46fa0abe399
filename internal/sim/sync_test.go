package sim

import (
	"fmt"
	"slices"
	"testing"
)

func TestQueueFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Push(i * 10)
			p.Sleep(Millisecond)
		}
	})
	e.Run()
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			v := q.Pop(p)
			got = append(got, name+":"+string(rune('0'+v)))
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(Second)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	e.Run()
	want := []string{"w1:1", "w2:2", "w3:3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	e := New(1)
	q := NewQueue[string](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push("x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := New(1)
	m := NewMutex(e)
	var order []string
	hold := func(name string, start, dur Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			m.Lock(p)
			order = append(order, name+"-in")
			p.Sleep(dur)
			order = append(order, name+"-out")
			m.Unlock()
		})
	}
	hold("a", 0, 10*Millisecond)
	hold("b", Millisecond, Millisecond)
	hold("c", 2*Millisecond, Millisecond)
	e.Run()
	want := []string{"a-in", "a-out", "b-in", "b-out", "c-in", "c-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMutex(New(1)).Unlock()
}

func TestMutexWaiters(t *testing.T) {
	e := New(1)
	m := NewMutex(e)
	var peak int
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(Second)
		peak = m.Waiters()
		m.Unlock()
	})
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(Millisecond)
			m.Lock(p)
			m.Unlock()
		})
	}
	e.Run()
	if peak != 3 {
		t.Fatalf("peak waiters = %d, want 3", peak)
	}
}

// TestMutexCallbackWaiters queues five waiters behind a holder, procs
// and LockNotify callbacks in mixed order, and holds them to five proc
// waiters: each must take the mutex in arrival order, at the same instant
// and after the same sequence numbers, and the engine must end having run
// the same events and drawn the same numbers. Waiters counts both kinds.
// A free mutex is taken by LockNotify at once, with nothing scheduled.
func TestMutexCallbackWaiters(t *testing.T) {
	run := func(callback []bool) ([]string, int, Counts) {
		e := New(1)
		defer e.Shutdown()
		mu := NewMutex(e)
		var trace []string
		took := func(name string) {
			trace = append(trace, fmt.Sprintf("%s at %d after seq %d", name, e.Now(), e.Counts().Seq))
		}
		peak := 0
		e.Go("holder", func(p *Proc) {
			mu.Lock(p)
			p.Sleep(100)
			peak = mu.Waiters()
			mu.Unlock()
		})
		for i, cb := range callback {
			name := fmt.Sprintf("w%d", i)
			// Every waiter arrives from a proc, so both runs draw the same
			// numbers to get there; a callback waiter's proc queues its
			// callback and ends.
			e.Go(name, func(p *Proc) {
				p.Sleep(Duration(10 * (i + 1)))
				if !cb {
					mu.Lock(p)
					took(name)
					p.Sleep(7)
					mu.Unlock()
					return
				}
				if mu.LockNotify(func() {
					took(name)
					e.Schedule(7, mu.Unlock)
				}) {
					t.Errorf("%s: LockNotify took a held mutex", name)
				}
			})
		}
		e.Run()
		return trace, peak, e.Counts()
	}
	want, wantPeak, wantCounts := run(make([]bool, 5))
	for _, mix := range [][]bool{
		{false, true, true, false, true},
		{true, false, true, false, false},
		{true, true, true, true, true},
	} {
		got, peak, counts := run(mix)
		if !slices.Equal(got, want) {
			t.Errorf("%v:\n%v\nall procs:\n%v", mix, got, want)
		}
		if peak != wantPeak || peak != 5 {
			t.Errorf("%v: %d waiters counted, all procs %d, want 5", mix, peak, wantPeak)
		}
		if counts.Seq != wantCounts.Seq || counts.Events != wantCounts.Events {
			t.Errorf("%v: counts %+v, all procs %+v", mix, counts, wantCounts)
		}
	}

	e := New(1)
	mu := NewMutex(e)
	if !mu.LockNotify(func() { t.Error("the callback of a free mutex ran") }) || !mu.Locked() {
		t.Fatal("LockNotify did not take a free mutex at once")
	}
	if c := e.Counts(); c.Seq != 0 {
		t.Fatalf("LockNotify on a free mutex drew %d sequence numbers", c.Seq)
	}
	mu.Unlock()
	e.Run()
	if mu.Locked() {
		t.Fatal("the mutex is held after its only holder unlocked it")
	}
}

func TestFutureSetBeforeGet(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	f.Set(7)
	var got int
	e.Go("g", func(p *Proc) { got = f.Get(p) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestFutureGetBlocksUntilSet(t *testing.T) {
	e := New(1)
	f := NewFuture[string](e)
	var got string
	var at Time
	e.Go("g", func(p *Proc) {
		got = f.Get(p)
		at = p.Now()
	})
	e.Schedule(3*Second, func() { f.Set("done") })
	e.Run()
	if got != "done" || at != Time(3*Second) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	sum := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) { sum += f.Get(p) })
	}
	e.Schedule(Second, func() { f.Set(5) })
	e.Run()
	if sum != 20 {
		t.Fatalf("sum = %d, want 20", sum)
	}
}

func TestFutureSetTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFuture[int](New(1))
	f.Set(1)
	f.Set(2)
}

func TestFutureGetTimeoutExpires(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var ok bool
	var at Time
	e.Go("g", func(p *Proc) {
		_, ok = f.GetTimeout(p, 2*Second)
		at = p.Now()
	})
	e.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != Time(2*Second) {
		t.Fatalf("timed out at %v, want 2s", at)
	}
	// A very late Set must not resume anyone.
	f.Set(1)
	e.Run()
}

func TestFutureGetTimeoutSucceeds(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	var v int
	var ok bool
	e.Go("g", func(p *Proc) { v, ok = f.GetTimeout(p, 2*Second) })
	e.Schedule(Second, func() { f.Set(9) })
	e.Run()
	if !ok || v != 9 {
		t.Fatalf("v=%d ok=%v", v, ok)
	}
}

func TestFutureGetTimeoutAlreadySet(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	f.Set(3)
	var v int
	var ok bool
	var at Time
	e.Go("g", func(p *Proc) {
		v, ok = f.GetTimeout(p, Second)
		at = p.Now()
	})
	e.Run()
	if !ok || v != 3 || at != 0 {
		t.Fatalf("v=%d ok=%v at=%v", v, ok, at)
	}
}

func TestFutureResetPanicsWithWaiter(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	e.Go("g", func(p *Proc) { f.GetTimeout(p, Second) })
	e.RunUntil(Time(Millisecond))
	defer e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a parked waiter did not panic")
		}
	}()
	f.Reset()
}

// TestFutureResetServesLikeNew reuses one future for a value, a timeout, a
// value again and a Set that comes before the wait, and checks each wait
// against a fresh future's: same value, same verdict, same instant.
func TestFutureResetServesLikeNew(t *testing.T) {
	type result struct {
		v  int
		ok bool
		at Time
	}
	// Each round waits up to 2s from its start at k*10s; setAt is when
	// the value arrives, relative to that start (negative: before the
	// wait, none: never).
	const none = Duration(-2)
	rounds := []Duration{Second, none, 3 * Second / 2, -1}
	run := func(reuse bool) []result {
		e := New(1)
		f := NewFuture[int](e)
		var got []result
		e.Go("g", func(p *Proc) {
			for k, setAt := range rounds {
				start := Time(Duration(k) * 10 * Second)
				p.Sleep(start.Sub(p.Now()))
				if !reuse {
					f = NewFuture[int](e)
				}
				g := f
				switch {
				case setAt == -1:
					g.Set(k)
				case setAt != none:
					e.Schedule(setAt, func() { g.Set(k) })
				}
				v, ok := g.GetTimeout(p, 2*Second)
				got = append(got, result{v, ok, p.Now() - start})
				if reuse {
					g.Reset()
				}
			}
		})
		e.Run()
		e.Shutdown()
		return got
	}
	fresh, reused := run(false), run(true)
	want := []result{{0, true, Time(Second)}, {0, false, Time(2 * Second)}, {2, true, Time(3 * Second / 2)}, {3, true, 0}}
	if !slices.Equal(fresh, want) {
		t.Fatalf("fresh futures: %v, want %v", fresh, want)
	}
	if !slices.Equal(reused, fresh) {
		t.Fatalf("a reset future served %v, a fresh one %v", reused, fresh)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("worker", func(p *Proc) {
			p.Sleep(Duration(i) * Second)
			wg.Done()
		})
	}
	e.Run()
	if doneAt != Time(3*Second) {
		t.Fatalf("waiter done at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	ran := false
	e.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaitGroup(New(1)).Add(-1)
}

// steadyAllocs reports allocations per 100 µs slice of an engine whose
// procs are already running, after checking that the slice makes progress.
func steadyAllocs(t *testing.T, e *Engine, rounds *int) float64 {
	t.Helper()
	slice := func() { e.RunUntil(e.Now().Add(100 * Microsecond)) }
	slice() // let queues, heaps and rings reach their working size
	before := *rounds
	n := testing.AllocsPerRun(50, slice)
	if *rounds-before < 50*90 {
		t.Fatalf("only %d rounds in 51 slices: the procs are not cycling", *rounds-before)
	}
	return n
}

func TestBlockingPrimitivesDoNotAllocate(t *testing.T) {
	t.Run("queue ping-pong", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		q1, q2 := NewQueue[int](e), NewQueue[int](e)
		rounds := 0
		e.Go("a", func(p *Proc) {
			for {
				q1.Push(rounds)
				q2.Pop(p)
				rounds++
				p.Sleep(Microsecond)
			}
		})
		e.Go("b", func(p *Proc) {
			for {
				q2.Push(q1.Pop(p))
			}
		})
		if n := steadyAllocs(t, e, &rounds); n != 0 {
			t.Fatalf("queue ping-pong allocates %v per slice, want 0", n)
		}
	})
	t.Run("mutex hand-off", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		mu := NewMutex(e)
		rounds := 0
		for _, name := range []string{"a", "b", "c"} {
			e.Go(name, func(p *Proc) {
				for {
					mu.Lock(p)
					p.Sleep(Microsecond) // the other two queue up behind the holder
					rounds++
					mu.Unlock()
				}
			})
		}
		if n := steadyAllocs(t, e, &rounds); n != 0 {
			t.Fatalf("contended mutex allocates %v per slice, want 0", n)
		}
		if mu.Waiters() != 2 {
			t.Fatalf("mutex has %d waiters, want 2: the lock is not contended", mu.Waiters())
		}
	})
	t.Run("mutex callback wait", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		mu := NewMutex(e)
		rounds := 0
		// Three callbacks take turns: each holds the mutex a microsecond,
		// releases it and queues behind the other two again.
		for range 3 {
			var lock, held, release func()
			lock = func() {
				if mu.LockNotify(held) {
					held()
				}
			}
			held = func() { e.Schedule(Microsecond, release) }
			release = func() {
				rounds++
				mu.Unlock()
				lock()
			}
			e.Schedule(0, lock)
		}
		if n := steadyAllocs(t, e, &rounds); n != 0 {
			t.Fatalf("a callback's wait on a mutex allocates %v per slice, want 0", n)
		}
		if mu.Waiters() != 2 {
			t.Fatalf("mutex has %d waiters, want 2: the lock is not contended", mu.Waiters())
		}
	})
	t.Run("inline resume", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		rounds := 0
		p := e.Go("suspended", func(p *Proc) {
			for {
				p.Suspend()
				rounds++
			}
		})
		var tick func()
		tick = func() {
			e.Resume(p)
			e.Schedule(Microsecond, tick)
		}
		e.Schedule(Microsecond, tick)
		if n := steadyAllocs(t, e, &rounds); n != 0 {
			t.Fatalf("inline resume allocates %v per slice, want 0", n)
		}
	})
	t.Run("callback wait", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		f := NewFuture[int](e)
		rounds := 0
		set := func() { f.Set(rounds) }
		var wake func()
		wake = func() {
			f.Reset()
			rounds++
			e.Schedule(500, set)
			f.NotifyTimeout(Second, wake)
		}
		e.Schedule(0, wake)
		if n := steadyAllocs(t, e, &rounds); n != 0 {
			t.Fatalf("a callback's wait on a future allocates %v per slice, want 0", n)
		}
	})
}

// TestNotifyTimeout holds a callback that waits on a future to a proc in
// GetTimeout. Each of five waits has a deadline 10 ns out, and its value
// comes before it, at it, after it or at once. Both sides must wake at the
// same instants, in the same place among those instants' other events,
// and draw the same sequence numbers. A timed-out callback is forgotten:
// a late Set runs nothing and the future can be reset.
func TestNotifyTimeout(t *testing.T) {
	gaps := []Duration{4, 10, 15, 0, 7}
	run := func(callback bool) ([]string, Counts) {
		e := New(1)
		defer e.Shutdown()
		f := NewFuture[int](e)
		var trace []string
		note := func(what string) { trace = append(trace, fmt.Sprintf("%d %s", e.Now(), what)) }
		round := 0
		// start schedules the round's value and a marker at its deadline,
		// both ahead of the wait.
		start := func() {
			r := round
			e.Schedule(gaps[r], func() {
				if r == round {
					f.Set(r)
				}
			})
			e.Schedule(10, func() { note("deadline") })
		}
		woke := func(v int, ok bool) {
			note(fmt.Sprintf("round %d: %d %v", round, v, ok))
			f.Reset()
			round++
		}
		if callback {
			var wake func()
			wake = func() {
				woke(f.TryGet())
				if round < len(gaps) {
					start()
					f.NotifyTimeout(10, wake)
				}
			}
			e.Schedule(0, func() {
				start()
				f.NotifyTimeout(10, wake)
			})
		} else {
			e.Go("waiter", func(p *Proc) {
				for round < len(gaps) {
					start()
					woke(f.GetTimeout(p, 10))
				}
			})
		}
		e.Run()
		return trace, e.Counts()
	}
	got, gotCounts := run(true)
	want, wantCounts := run(false)
	if !slices.Equal(got, want) {
		t.Fatalf("callback:\n%v\nproc:\n%v", got, want)
	}
	if gotCounts.Seq != wantCounts.Seq || gotCounts.Events != wantCounts.Events || gotCounts.Resumes != 0 {
		t.Fatalf("callback counts %+v, proc %+v", gotCounts, wantCounts)
	}

	e := New(1)
	f := NewFuture[int](e)
	calls := 0
	f.NotifyTimeout(5, func() { calls++ })
	e.Run()
	f.Set(1)
	e.Run()
	if calls != 1 {
		t.Fatalf("callback ran %d times, want once, at its deadline", calls)
	}
	f.Reset()
	for _, c := range []struct {
		what string
		arm  func()
	}{
		{"a set future", func() { f.Set(1); f.NotifyTimeout(5, func() {}) }},
		{"a waited one", func() { f.Reset(); f.NotifyTimeout(5, func() {}); f.NotifyTimeout(5, func() {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NotifyTimeout on %s did not panic", c.what)
				}
			}()
			c.arm()
		}()
	}
}

// TestQueueItemOrderAcrossWrap pushes and pops in uneven bursts so the item
// ring wraps, drains to empty, refills and grows while holding elements.
func TestQueueItemOrderAcrossWrap(t *testing.T) {
	q := NewQueue[int](New(1))
	pushed, popped := 0, 0
	for _, burst := range []struct{ push, pop int }{{3, 2}, {3, 4}, {5, 1}, {6, 10}, {0, 0}, {9, 9}, {2, 1}, {40, 41}} {
		for i := 0; i < burst.push; i++ {
			q.Push(pushed)
			pushed++
		}
		for i := 0; i < burst.pop; i++ {
			v, ok := q.TryPop()
			if !ok || v != popped {
				t.Fatalf("pop %d returned (%d, %v)", popped, v, ok)
			}
			popped++
		}
		if q.Len() != pushed-popped {
			t.Fatalf("Len = %d with %d pushed and %d popped", q.Len(), pushed, popped)
		}
	}
	if _, ok := q.TryPop(); ok || q.Len() != 0 {
		t.Fatal("queue not empty after popping everything pushed")
	}
}

// TestQueueWakeOrderAcrossRefill checks which waiter each push wakes against
// a slice model, through bursts that wake some of the five waiters, all of
// them (the waiter list drains to empty and refills as they park again) and
// enough of them for the waiter ring to wrap.
func TestQueueWakeOrderAcrossRefill(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	names := []string{"w0", "w1", "w2", "w3", "w4"}
	var got, want []string
	items := 0
	for _, name := range names {
		e.Go(name, func(p *Proc) {
			for {
				if v := q.Pop(p); v != len(got) {
					t.Errorf("%s popped item %d as pop number %d", name, v, len(got))
				}
				got = append(got, name)
				// Work on the item, as a server worker does; without
				// this the first waiter woken pops the whole burst.
				p.Sleep(Microsecond)
			}
		})
	}
	parked := append([]string(nil), names...) // in park order
	e.Go("producer", func(p *Proc) {
		for _, burst := range []int{3, 5, 5, 2, 5, 1, 4, 5, 5, 3} {
			p.Sleep(Millisecond) // everyone woken by the last burst has parked again
			woken := append([]string(nil), parked[:burst]...)
			for i := 0; i < burst; i++ {
				q.Push(items)
				items++
			}
			parked = append(parked[burst:], woken...) // they run, and park, in wake order
			want = append(want, woken...)
		}
	})
	e.Run()
	if q.Waiters() != len(names) {
		t.Fatalf("%d waiters parked at the end, want %d", q.Waiters(), len(names))
	}
	e.Shutdown()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("wake order\n got %v\nwant %v", got, want)
	}
}

// TestFutureTimeoutLeavesOtherWaiter parks two procs with deadlines on one
// future — the first in the future's own waiter slot, the second in the
// overflow slice — lets one of them time out, and checks that the other,
// and a third arriving later, still get the value, in arrival order, with
// no timer left pending.
func TestFutureTimeoutLeavesOtherWaiter(t *testing.T) {
	for _, tc := range []struct {
		name           string
		first, second  Duration // deadlines of the waiters arriving at t=0
		wantOK, wantTO string
	}{
		{name: "overflow waiter times out", first: 10 * Millisecond, second: Millisecond, wantOK: "[a c]", wantTO: "[b]"},
		{name: "slot waiter times out", first: Millisecond, second: 10 * Millisecond, wantOK: "[b c]", wantTO: "[a]"},
	} {
		e := New(1)
		f := NewFuture[int](e)
		var gotOK, gotTO []string
		wait := func(name string, start, d Duration) {
			e.Go(name, func(p *Proc) {
				p.Sleep(start)
				began := p.Now()
				v, ok := f.GetTimeout(p, d)
				switch {
				case ok && v == 7 && p.Now() == Time(5*Millisecond):
					gotOK = append(gotOK, name)
				case !ok && p.Now() == began.Add(d):
					gotTO = append(gotTO, name)
				default:
					t.Errorf("%s: %s got (%d, %v) at %v", tc.name, name, v, ok, p.Now())
				}
			})
		}
		wait("a", 0, tc.first)
		wait("b", 0, tc.second)
		wait("c", 2*Millisecond, 10*Millisecond) // arrives after the timeout
		e.Schedule(5*Millisecond, func() {
			f.Set(7)
			if len(e.timers) != 0 {
				t.Errorf("%s: %d timers pending after Set", tc.name, len(e.timers))
			}
		})
		e.Run()
		e.Shutdown()
		if fmt.Sprint(gotOK) != tc.wantOK || fmt.Sprint(gotTO) != tc.wantTO {
			t.Fatalf("%s: got value %v, timed out %v; want %s, %s", tc.name, gotOK, gotTO, tc.wantOK, tc.wantTO)
		}
	}
}
