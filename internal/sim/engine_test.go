package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*Second) {
		t.Fatalf("now = %v, want 3s", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := New(1)
	var ranAt Time
	e.Schedule(Second, func() {
		e.ScheduleAt(0, func() { ranAt = e.Now() })
	})
	e.Run()
	if ranAt != Time(Second) {
		t.Fatalf("past event ran at %v, want clamped to 1s", ranAt)
	}
}

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var trace []string
	for _, n := range []struct {
		name string
		d    Duration
	}{{"a", 10 * Microsecond}, {"b", 5 * Microsecond}, {"c", 7 * Microsecond}} {
		n := n
		e.Go(n.name, func(p *Proc) {
			p.Sleep(n.d)
			trace = append(trace, n.name)
		})
	}
	e.Run()
	want := []string{"b", "c", "a"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New(1)
	ran := 0
	e.Schedule(Second, func() { ran++ })
	e.Schedule(3*Second, func() { ran++ })
	e.RunUntil(Time(2 * Second))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Now() != Time(2*Second) {
		t.Fatalf("now = %v, want 2s", e.Now())
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after full run, want 2", ran)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	ran := 0
	e.Schedule(Second, func() { ran++; e.Stop() })
	e.Schedule(2*Second, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (stopped)", ran)
	}
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("blocked-%d", i), func(p *Proc) {
			q.Pop(p) // blocks forever
			t.Error("blocked proc should never resume normally")
		})
	}
	e.Run()
	if e.LiveProcs() != 5 {
		t.Fatalf("LiveProcs = %d, want 5 before shutdown", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0 after shutdown", e.LiveProcs())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(Second)
		panic("boom")
	})
	defer func() {
		want := fmt.Sprintf("sim: panic in proc %q at t=%v: boom", "bomb", Time(Second))
		if r := recover(); r != want {
			t.Fatalf("Run panicked with %v, want %q", r, want)
		}
		if e.LiveProcs() != 0 {
			t.Fatalf("LiveProcs = %d after the only proc panicked", e.LiveProcs())
		}
	}()
	e.Run()
}

// TestShutdownTeardown kills a 1,000-proc engine holding procs in every
// state Shutdown can meet: parked in Queue.Pop, parked in GetTimeout, and
// spawned but never resumed. Every parked proc must unwind through its
// deferred function exactly once — one in four then tries to block again
// from inside it, which a killed proc must refuse to do — the bodies of the
// never-resumed ones must not run at all, and no goroutine (a coroutine is
// one) may outlive the engine.
func TestShutdownTeardown(t *testing.T) {
	// A coroutine's goroutine exits a moment after its body returns (a
	// long moment under -race): let the ones earlier tests left behind go
	// first, or the baseline counts them and the checks below are off by
	// however many were still exiting.
	before := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); time.Now().Before(settle); {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	e := New(1)
	q := NewQueue[int](e)
	f := NewFuture[int](e)
	const parked, fresh = 800, 200
	cleanups := make([]int, parked)
	for i := 0; i < parked; i++ {
		e.Go(fmt.Sprintf("parked-%d", i), func(p *Proc) {
			defer func() {
				cleanups[i]++
				if i%4 == 0 {
					p.Sleep(Second)
					t.Errorf("proc %d slept after being killed", i)
				}
			}()
			if i%2 == 0 {
				q.Pop(p)
			} else {
				f.GetTimeout(p, Minute)
			}
			t.Errorf("proc %d resumed normally", i)
		})
	}
	e.RunUntil(Time(Second))
	for i := 0; i < fresh; i++ {
		e.Go(fmt.Sprintf("fresh-%d", i), func(p *Proc) {
			t.Errorf("proc %d ran: it was spawned after the run ended", i)
		})
	}
	// Fewer goroutines than procs would make the leak check below vacuous.
	if e.LiveProcs() != parked+fresh || runtime.NumGoroutine() < before+parked+fresh {
		t.Fatalf("before Shutdown: %d live procs, %d goroutines over the baseline, want %d of each",
			e.LiveProcs(), runtime.NumGoroutine()-before, parked+fresh)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", e.LiveProcs())
	}
	for i, n := range cleanups {
		if n != 1 {
			t.Fatalf("deferred function of proc %d ran %d times, want 1", i, n)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the engine, %d after Shutdown", before, after)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("parent", func(p *Proc) {
		order = append(order, "parent-start")
		e.Go("child", func(c *Proc) {
			order = append(order, "child")
		})
		p.Sleep(Microsecond)
		order = append(order, "parent-end")
	})
	e.Run()
	want := []string{"parent-start", "child", "parent-end"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestYield(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	runOnce := func(seed int64) []string {
		e := New(seed)
		var trace []string
		q := NewQueue[int](e)
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for {
					v := q.Pop(p)
					if v < 0 {
						return
					}
					p.Sleep(Duration(e.Rand().Intn(100)) * Microsecond)
					trace = append(trace, fmt.Sprintf("w%d:%d@%d", i, v, p.Now()))
				}
			})
		}
		e.Go("producer", func(p *Proc) {
			for j := 0; j < 50; j++ {
				q.Push(j)
				p.Sleep(Duration(e.Rand().Intn(30)) * Microsecond)
			}
			for j := 0; j < 4; j++ {
				q.Push(-1)
			}
		})
		e.Run()
		e.Shutdown()
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("trace lengths differ or wrong: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := runOnce(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical trace; rng not wired in")
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	tk := NewTicker(e, Second, func(now Time) {
		ticks = append(ticks, now)
	})
	e.Schedule(Duration(3500*Millisecond), func() { tk.Stop() })
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %d, want 3", len(ticks))
	}
	for i, tt := range ticks {
		if tt != Time((i+1)*int(Second)) {
			t.Fatalf("tick %d at %v", i, tt)
		}
	}
}

func TestTimeStrings(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{Duration(2500), "2.50us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if Time(1500*Millisecond).String() != "1.500000s" {
		t.Errorf("Time.String = %q", Time(1500*Millisecond).String())
	}
}

func TestScaleDuration(t *testing.T) {
	if Scale(10*Microsecond, 1.5) != 15*Microsecond {
		t.Fatal("Scale(10us, 1.5) != 15us")
	}
	if Scale(Second, 0) != 0 {
		t.Fatal("Scale by zero must be zero")
	}
}

func TestTimerHeapCancelMidHeap(t *testing.T) {
	// Many interleaved deadlines; cancel from the middle of the heap and
	// check the survivors fire in exact (time, seq) order.
	e := New(1)
	var tms []*timer
	for i := 0; i < 40; i++ {
		d := Duration((i*37)%100 + 1)
		tm := new(timer)
		e.scheduleTimer(tm, e.now.Add(d), nil, nil)
		tms = append(tms, tm)
	}
	// Cancel every third timer, including the current minimum.
	for i := 0; i < len(tms); i += 3 {
		e.cancelTimer(tms[i])
		e.cancelTimer(tms[i]) // idempotent
	}
	var last Time
	var lastSeq uint64
	popped := 0
	for len(e.timers) > 0 {
		tm := e.timerPop()
		popped++
		if tm.t < last || (tm.t == last && tm.seq <= lastSeq) {
			t.Fatalf("timer order violated: (%v,%d) after (%v,%d)", tm.t, tm.seq, last, lastSeq)
		}
		last, lastSeq = tm.t, tm.seq
		// Heap invariant: every live timer knows its slot.
		for idx, tt := range e.timers {
			if tt.idx != idx {
				t.Fatalf("timer idx %d stored as %d", idx, tt.idx)
			}
		}
	}
	if want := 40 - 14; popped != want { // 14 of 40 cancelled
		t.Fatalf("popped %d timers, want %d", popped, want)
	}
}

func TestTimerInterleavesWithEvents(t *testing.T) {
	// A timer and plain events at the same timestamp must run in seq order.
	e := New(1)
	var order []string
	done := make(chan struct{})
	e.Go("waiter", func(p *Proc) {
		f := NewFuture[int](e)
		// Deadline at t=10; events also at t=10 on both sides of the
		// timer's sequence number.
		e.Schedule(10, func() { order = append(order, "before") })
		_, ok := f.GetTimeout(p, 10)
		if ok {
			t.Error("future was never set; GetTimeout must time out")
		}
		order = append(order, "timeout")
		close(done)
	})
	e.Run()
	<-done
	if len(order) != 2 || order[0] != "before" || order[1] != "timeout" {
		t.Fatalf("order = %v", order)
	}
	e.Shutdown()
}

func TestFutureSetCancelsTimeoutTimer(t *testing.T) {
	e := New(1)
	f := NewFuture[int](e)
	got := 0
	e.Go("waiter", func(p *Proc) {
		v, ok := f.GetTimeout(p, 1000)
		if !ok {
			t.Error("timed out despite early Set")
		}
		got = v
	})
	e.Schedule(5, func() { f.Set(7) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %d", got)
	}
	if len(e.timers) != 0 {
		t.Fatalf("timer not cancelled: %d pending", len(e.timers))
	}
	// The engine must go quiet at the Set, not drag to the deadline.
	if e.Now() >= 1000 {
		t.Fatalf("engine ran to the stale deadline: now=%v", e.Now())
	}
	e.Shutdown()
}

// Keyed events at one instant run in key order whatever order they were
// scheduled in, and after every event the engine numbered itself at that
// instant — one scheduled later and one raised during the instant included.
func TestScheduleKeyedAtOrdersByKey(t *testing.T) {
	e := New(1)
	at := Time(Microsecond)
	var got []string
	e.ScheduleAt(at, func() { got = append(got, "plain0") })
	for _, k := range []uint64{3, 1, 2} {
		k := k
		e.ScheduleKeyedAt(at, KeyedSeqBit|k, func() { got = append(got, fmt.Sprintf("key%d", k)) })
	}
	e.ScheduleAt(at, func() {
		got = append(got, "plain1")
		e.Schedule(0, func() { got = append(got, "ring") })
	})
	e.Run()
	want := []string{"plain0", "plain1", "ring", "key1", "key2", "key3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestScheduleKeyedAtPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	e := New(1)
	mustPanic("key without KeyedSeqBit", func() { e.ScheduleKeyedAt(Time(Second), 1, func() {}) })
	mustPanic("t == now", func() { e.ScheduleKeyedAt(e.Now(), KeyedSeqBit|1, func() {}) })
	e.Schedule(Second, func() {
		mustPanic("t < now", func() { e.ScheduleKeyedAt(Time(Millisecond), KeyedSeqBit|1, func() {}) })
	})
	e.Run()
}

// TestResumeRunsInline resumes a suspended proc from callbacks: the proc's
// code runs inside the calling callback, between its statements, until it
// suspends again or returns, and the resume draws no sequence number, so
// an event scheduled after it still runs in its (time, sequence) slot.
func TestResumeRunsInline(t *testing.T) {
	e := New(1)
	var order []string
	p := e.Go("worker", func(p *Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, fmt.Sprintf("proc %d", i))
			p.Suspend()
		}
		order = append(order, "proc returns")
	})
	for i := 1; i <= 2; i++ {
		e.Schedule(Duration(i)*Second, func() {
			order = append(order, fmt.Sprintf("callback %d", i))
			seq := e.seq
			e.Resume(p)
			if e.seq != seq {
				t.Errorf("callback %d: Resume drew %d sequence numbers", i, e.seq-seq)
			}
			order = append(order, fmt.Sprintf("callback %d after", i))
			e.Schedule(0, func() { order = append(order, fmt.Sprintf("event after %d", i)) })
		})
	}
	e.Run()
	want := []string{
		"proc 0",
		"callback 1", "proc 1", "callback 1 after", "event after 1",
		"callback 2", "proc returns", "callback 2 after", "event after 2",
	}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %q,\nwant    %q", order, want)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the resumed proc returned", e.LiveProcs())
	}
}

// TestResumePanics checks Resume's two refusals: from a proc, where an
// inline switch would hand the proc's own park to the other proc, and of a
// proc that is not suspended, whose wake-up is already scheduled.
func TestResumePanics(t *testing.T) {
	run := func(t *testing.T, e *Engine, want string) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
				t.Fatalf("Run panicked with %q, want it to contain %q", r, want)
			}
		}()
		e.Run()
	}
	t.Run("from a proc", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		target := e.Go("target", func(p *Proc) { p.Suspend() })
		e.Go("caller", func(p *Proc) { e.Resume(target) })
		run(t, e, `sim: Resume("target") from proc "caller"`)
	})
	t.Run("not suspended", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		sleeper := e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
		e.Schedule(Millisecond, func() { e.Resume(sleeper) })
		run(t, e, `sim: Resume of proc "sleeper", which is not suspended`)
	})
}
