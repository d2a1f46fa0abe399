package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ramcloud/internal/realnode"
	"ramcloud/internal/transport"
)

// tally is one driver goroutine's outcomes. Every completed op is
// verified: a read must return exactly the pre-built value, no key may be
// missing after the full load, and the versions a worker sees for one key
// must never regress.
type tally struct {
	epoch     time.Time
	lats      []int64 // ns per measured op, from (intended) send to completion
	ends      []int64 // ns since epoch at which each measured op completed
	attempted int
	failed    int
	within    int      // measured ops completed OK within latencyLimit
	lastVer   []uint64 // per record: highest version this worker has seen
	firstErr  error
}

func newTally(epoch time.Time, ops, nRecords int) *tally {
	return &tally{epoch: epoch, lats: make([]int64, 0, ops), ends: make([]int64, 0, ops), lastVer: make([]uint64, nRecords)}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// settle verifies one completed op and records its latency, from sent (the
// intended send time) to end. floor is the lowest version the op may
// legally return (the worker's last sighting of the key, or for pipelined
// ops the last one completed before this one was issued). want is nil for
// writes.
func (t *tally) settle(rec int32, want, got []byte, ver, floor uint64, err error, sent, end time.Time, measured bool) {
	t.attempted++
	ok := true
	switch {
	case err != nil:
		t.fail(fmt.Errorf("record %d: %w", rec, err))
		ok = false
	case want != nil && !bytes.Equal(got, want):
		t.fail(fmt.Errorf("record %d: read returned %d bytes that differ from the value written", rec, len(got)))
		ok = false
	case ver < floor:
		t.fail(fmt.Errorf("record %d: version went back from %d to %d", rec, floor, ver))
		ok = false
	}
	if ver > t.lastVer[rec] {
		t.lastVer[rec] = ver
	}
	if !measured {
		return
	}
	lat := end.Sub(sent)
	t.lats = append(t.lats, int64(lat))
	t.ends = append(t.ends, int64(end.Sub(t.epoch)))
	if ok && lat <= latencyLimit {
		t.within++
	}
}

// driveSync is the closed loop of one synchronous worker.
func driveSync(c *cluster, d *dataset, s opStream, lane int, tr *tracer, t *tally) {
	for i, rec := range s.rec {
		start := time.Now()
		if s.read[i] {
			v, ver, err := c.client.Get(c.table, d.keys[rec])
			end := time.Now()
			tr.op(lane, rec, start, end)
			t.settle(rec, d.vals[rec], v, ver, t.lastVer[rec], err, start, end, true)
		} else {
			ver, err := c.client.Put(c.table, d.keys[rec], d.vals[rec])
			end := time.Now()
			tr.op(lane, rec, start, end)
			t.settle(rec, nil, nil, ver, t.lastVer[rec], err, start, end, true)
		}
	}
}

// batchCalls lists, in issue order, the record set of every client API
// call driveBatch makes for a stream: per round of batch ops, the reads
// as one MultiRead and then the writes as one MultiWrite.
func batchCalls(s opStream, batch int) (calls [][]int32, isRead []bool) {
	for from := 0; from < s.len(); from += batch {
		to := from + batch
		if to > s.len() {
			to = s.len()
		}
		var reads, writes []int32
		for i := from; i < to; i++ {
			if s.read[i] {
				reads = append(reads, s.rec[i])
			} else {
				writes = append(writes, s.rec[i])
			}
		}
		if len(reads) > 0 {
			calls = append(calls, reads)
			isRead = append(isRead, true)
		}
		if len(writes) > 0 {
			calls = append(calls, writes)
			isRead = append(isRead, false)
		}
	}
	return calls, isRead
}

// driveBatch is the closed loop of one batching worker. A round's latency
// is charged to every op in it: a multi-get's caller waits for the whole
// batch.
func driveBatch(c *cluster, d *dataset, s opStream, batch, lane int, tr *tracer, t *tally) {
	calls, isRead := batchCalls(s, batch)
	keys := make([][]byte, 0, batch)
	vals := make([][]byte, 0, batch)
	results := make([][]realnode.MultiResult, 0, 2)
	for at := 0; at < len(calls); {
		// One round: a MultiRead and/or a MultiWrite.
		n := 1
		if at+1 < len(calls) && isRead[at] && !isRead[at+1] {
			n = 2
		}
		results = results[:0]
		roundStart := time.Now()
		for k := at; k < at+n; k++ {
			keys, vals = keys[:0], vals[:0]
			for _, rec := range calls[k] {
				keys = append(keys, d.keys[rec])
				vals = append(vals, d.vals[rec])
			}
			start := time.Now()
			if isRead[k] {
				results = append(results, c.client.MultiRead(c.table, keys))
			} else {
				results = append(results, c.client.MultiWrite(c.table, keys, vals))
			}
			tr.op(lane, calls[k][0], start, time.Now())
		}
		roundEnd := time.Now()
		for k := at; k < at+n; k++ {
			for j, r := range results[k-at] {
				rec := calls[k][j]
				var want []byte
				if isRead[k] {
					want = d.vals[rec]
				}
				t.settle(rec, want, r.Value, r.Version, t.lastVer[rec], r.Err, roundStart, roundEnd, true)
			}
		}
		at += n
	}
}

// openStats is what the open-loop generator reports about itself.
type openStats struct {
	lagNs []int64       // measured ops: actual issue − intended send
	late  int           // measured ops issued more than lateAfter behind schedule
	span  time.Duration // first measured op due → last measured op reaped
	cpu   time.Duration // CPU the scheduling thread burnt pacing and issuing
	// ticks are taken by the scheduling thread every sliceLen, with its
	// own CPU already subtracted: the window's ticks for sliceStats.
	ticks []tick
}

const lateAfter = 100 * time.Microsecond

// threadCPU returns the calling OS thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driveOpen offers s at a fixed rate from one scheduling goroutine and
// reaps completions in issue order on another. Independent users do not
// wait for each other, so the schedule never yields to the system: an op
// is timed from when it was due, and a stall is charged to every op that
// came due during it (no coordinated omission). The first rampOps ops
// are offered but not measured.
//
// At 30,000 ops/s ops are due 33 µs apart, and a Go timer that parks its
// thread wakes up to a millisecond late, so the scheduler busy-waits on
// its own OS thread with one P added for it: the cluster keeps the Ps it
// has in every other workload, and the kernel, which prefers threads that
// sleep to one that never does, hands the spinner only cycles the cluster
// leaves idle. The thread's CPU is reported so it can be subtracted.
func driveOpen(c *cluster, d *dataset, s opStream, rate float64, rampOps int, tr *tracer, t *tally) openStats {
	type inflight struct {
		f      *realnode.Future
		i      int
		issued time.Time
		floor  uint64
	}
	// Sized to the whole stream: the scheduler must never block on the
	// reaper, however far the system falls behind.
	pipe := make(chan inflight, s.len())
	// doneVer is the highest version of each record among completed ops.
	// An op issued after that completion must not return a lower one; two
	// ops in flight together may resolve in either order.
	doneVer := make([]atomic.Uint64, len(d.keys))
	interval := float64(time.Second) / rate
	st := openStats{lagNs: make([]int64, 0, s.len()-rampOps)}
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) * interval)) }

	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + 1)
	defer runtime.GOMAXPROCS(procs)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pipe)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		defer func() { st.cpu = threadCPU() - cpu0 }()
		nextTick := start
		for i, rec := range s.rec {
			at := due(i)
			now := time.Now()
			for now.Before(at) {
				now = time.Now()
			}
			if !now.Before(nextTick) {
				st.ticks = append(st.ticks, tick{now, cpuTime() - threadCPU()})
				nextTick = now.Add(sliceLen)
			}
			if i >= rampOps {
				lag := now.Sub(at)
				st.lagNs = append(st.lagNs, int64(lag))
				if lag > lateAfter {
					st.late++
				}
			}
			op := inflight{i: i, issued: now, floor: doneVer[rec].Load()}
			if s.read[i] {
				op.f = c.client.GetAsync(c.table, d.keys[rec])
			} else {
				op.f = c.client.PutAsync(c.table, d.keys[rec], d.vals[rec])
			}
			pipe <- op
		}
	}()
	for op := range pipe {
		rec := s.rec[op.i]
		v, ver, err := op.f.Wait()
		end := time.Now()
		tr.op(0, rec, op.issued, end)
		var want []byte
		if s.read[op.i] {
			want = d.vals[rec]
		}
		t.settle(rec, want, v, ver, op.floor, err, due(op.i), end, op.i >= rampOps)
		if ver > doneVer[rec].Load() {
			doneVer[rec].Store(ver)
		}
		st.span = end.Sub(due(rampOps))
	}
	wg.Wait()
	return st
}

// tcpRep is everything one repetition of a TCP workload measured.
type tcpRep struct {
	setups []float64 // seconds each: cluster boot, load and warm-up, up to the first measured op
	win    *window
	wall   time.Duration // the measured ops' span (open loop: without the ramp)

	lats      []int64 // sorted, measured ops
	slices    []slice
	attempted int
	failed    int
	within    int
	windowOps int // ops completed inside win (open loop: ramp included)
	firstErr  error

	bootMs      float64
	retries     uint64
	refreshes   uint64
	wrongServer uint64
	shareMax    float64 // busiest server's share of the ops served
	open        openStats

	trace *traceResult // traced repetitions only
}

// traceResult is a traced repetition's reduced spans.
type traceResult struct {
	self                selfTimes
	ops, calls, handles []span
	laneBase            []int
}

// seqOf maps an index into ops back to (worker, sequence).
func (r *traceResult) seqOf(o int) (lane, seq int) {
	l := sort.Search(len(r.laneBase), func(i int) bool { return r.laneBase[i] > o }) - 1
	return l, o - r.laneBase[l]
}

const setupsPerRep = 3

// setUp boots a fresh cluster on net, loads every record and runs the
// unmeasured warm-up: everything a user waits for before the first
// measured op. It returns the running cluster and how long that took.
func setUp(spec tcpSpec, d *dataset, warm opStream, net transport.Interface) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := bootCluster(net)
	if err != nil {
		return nil, 0, err
	}
	if err := c.load(d); err != nil {
		c.stop()
		return nil, 0, err
	}
	wt := newTally(start, warm.len(), len(d.keys))
	if spec.mode == modeBatch {
		driveBatch(c, d, warm, spec.batch, 0, nil, wt)
	} else {
		driveSync(c, d, warm, 0, nil, wt)
	}
	if wt.failed > 0 {
		c.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", wt.firstErr)
	}
	return c, time.Since(start), nil
}

// runTCPRep boots a fresh cluster on inner, loads it, warms it up and
// drives one repetition of spec. With traced set the cluster runs behind
// the span decorator; nothing else differs.
func runTCPRep(spec tcpSpec, d *dataset, streams []opStream, warm opStream, inner transport.Interface, traced bool) (tcpRep, error) {
	var rep tcpRep
	var tr *tracer
	net := inner
	if traced {
		// One root span per client API call, and room for each to reach
		// every server it can: one for a single-key op, all for a multi-op.
		perLane := make([]int, len(streams))
		rpcs := 1024
		for i, s := range streams {
			perLane[i] = s.len()
			if spec.mode == modeBatch {
				perLane[i] = 2 * (s.len()/spec.batch + 1)
				rpcs += perLane[i] * nServers
			} else {
				rpcs += perLane[i]
			}
		}
		tr = newTracer(perLane, rpcs)
		net = newTracedTransport(inner, tr)
	}

	// Set-up is short enough (~0.1 s) to catch the box in either of its
	// moods, so every repetition sets up setupsPerRep times and keeps the
	// last cluster: the run's setup_s is the median of them all.
	var c *cluster
	for i := 0; i < setupsPerRep; i++ {
		if c != nil {
			c.stop()
		}
		settleHeap()
		var took time.Duration
		var err error
		if c, took, err = setUp(spec, d, warm, net); err != nil {
			return rep, err
		}
		rep.setups = append(rep.setups, took.Seconds())
	}
	defer c.stop()
	rep.bootMs = c.bootMs
	reads0, writes0, _, per0 := c.served()
	retries0 := c.client.Stats().Retries.Load()

	epoch := time.Now()
	tallies := make([]*tally, len(streams))
	for i, s := range streams {
		tallies[i] = newTally(epoch, s.len(), len(d.keys))
	}
	if tr != nil {
		tr.armed.Store(true)
	}
	rep.win = openWindow()
	switch spec.mode {
	case modeOpen:
		rampOps := int(spec.rate * spec.ramp.Seconds())
		rep.open = driveOpen(c, d, streams[0], spec.rate, rampOps, tr, tallies[0])
		rep.wall = rep.open.span
	default:
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				if spec.mode == modeBatch {
					driveBatch(c, d, streams[lane], spec.batch, lane, tr, tallies[lane])
				} else {
					driveSync(c, d, streams[lane], lane, tr, tallies[lane])
				}
			}(i)
		}
		wg.Wait()
	}
	rep.win.close()
	if tr != nil {
		tr.armed.Store(false)
	}
	if spec.mode != modeOpen {
		rep.wall = rep.win.wall
	}

	wantReads, wantWrites := 0, 0
	for i, t := range tallies {
		rep.attempted += t.attempted
		rep.failed += t.failed
		rep.within += t.within
		rep.lats = append(rep.lats, t.lats...)
		if rep.firstErr == nil {
			rep.firstErr = t.firstErr
		}
		for _, isRead := range streams[i].read {
			if isRead {
				wantReads++
			} else {
				wantWrites++
			}
		}
	}
	rep.windowOps = rep.attempted - rep.failed
	slices.Sort(rep.lats)
	if spec.mode == modeOpen {
		rep.slices = sliceStats(tallies, rep.open.ticks)
	} else {
		rep.slices = sliceStats(tallies, rep.win.ticks)
	}

	// The masters must have served exactly what the drivers issued: a
	// retried, duplicated or silently dropped op shows as a difference.
	reads1, writes1, wrong, per1 := c.served()
	if got := reads1 - reads0; got != uint64(wantReads) {
		rep.failed++
		rep.firstErr = fmt.Errorf("servers served %d reads, drivers issued %d", got, wantReads)
	}
	if got := writes1 - writes0; got != uint64(wantWrites) {
		rep.failed++
		rep.firstErr = fmt.Errorf("servers served %d writes, drivers issued %d", got, wantWrites)
	}
	rep.wrongServer = wrong
	var total, busiest uint64
	for i := range per1 {
		n := per1[i] - per0[i]
		total += n
		if n > busiest {
			busiest = n
		}
	}
	if total > 0 {
		rep.shareMax = float64(busiest) / float64(total)
	}
	rep.retries = c.client.Stats().Retries.Load() - retries0
	rep.refreshes = c.client.Stats().Refreshes.Load()

	if tr != nil {
		rep.trace = reduceTrace(tr, spec, streams)
	}
	return rep, nil
}

// sliceLen is the granularity at which a window is sampled and sliced.
const sliceLen = 100 * time.Millisecond

// slice is what the cluster did between two consecutive window ticks.
type slice struct {
	kops     float64 // completed ops per second / 1e3
	p50Us    float64 // median latency of the ops that completed in it
	cpuUsPer float64 // process CPU per completed op
}

// sliceStats cuts a window at its ticks and measures every slice.
//
// Why slices: this box flips, every few hundred milliseconds to few
// seconds, between two speed states that have nothing to do with the code
// under test — a synchronous loopback RPC takes 26-27 µs in one and 40-41
// µs in the other, with nothing in between (a halted vCPU costs an extra
// VM exit to wake; the guest's adaptive halt-polling decides which state
// holds). A whole-window mean or median mixes the two in whatever
// proportion the host happened to give and repeats to ±15 %; the states
// themselves repeat to ±2 %. Slices are short enough to lie inside one
// state, so a quantile over them can pick the fast state out (see
// bestSlices).
func sliceStats(tallies []*tally, ticks []tick) []slice {
	n := len(ticks) - 1
	if n < 1 {
		return nil
	}
	lats := make([][]int64, n)
	for _, t := range tallies {
		for i, e := range t.ends {
			at := t.epoch.Add(time.Duration(e))
			// First tick after the completion; the op belongs to the slice
			// that ends there.
			k := sort.Search(len(ticks), func(j int) bool { return ticks[j].at.After(at) }) - 1
			if k >= 0 && k < n {
				lats[k] = append(lats[k], t.lats[i])
			}
		}
	}
	out := make([]slice, 0, n)
	for k, l := range lats {
		dt := ticks[k+1].at.Sub(ticks[k].at)
		// The first slice starts cold and the last is cut short; a slice
		// the sampler itself was late for is not 100 ms of anything.
		if k == 0 || k == n-1 || len(l) == 0 || dt < sliceLen/2 || dt > 2*sliceLen {
			continue
		}
		slices.Sort(l)
		out = append(out, slice{
			kops:     float64(len(l)) / dt.Seconds() / 1e3,
			p50Us:    float64(percentile(l, 50, 100)) / 1e3,
			cpuUsPer: us(ticks[k+1].cpu-ticks[k].cpu) / float64(len(l)),
		})
	}
	return out
}

// reduceTrace links and reduces a traced repetition's spans.
func reduceTrace(tr *tracer, spec tcpSpec, streams []opStream) *traceResult {
	var keysOf func(lane, seq int) []int32
	if spec.mode == modeBatch {
		perLane := make([][][]int32, len(streams))
		for i, s := range streams {
			perLane[i], _ = batchCalls(s, spec.batch)
		}
		keysOf = func(lane, seq int) []int32 { return perLane[lane][seq] }
	} else {
		keysOf = func(lane, seq int) []int32 { return []int32{tr.ops[lane][seq].rec} }
	}
	res := &traceResult{}
	for _, lane := range tr.ops {
		res.laneBase = append(res.laneBase, len(res.ops))
		res.ops = append(res.ops, lane...)
	}
	res.self, res.calls, res.handles = tr.analyze(res.ops, res.seqOf, keysOf)
	return res
}
