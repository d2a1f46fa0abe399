// Package ycsb reimplements the Yahoo! Cloud Serving Benchmark workload
// model used by the paper: core workloads A (update-heavy, 50/50),
// B (read-heavy, 95/5) and C (read-only), uniform and zipfian request
// distributions, fixed-size records, closed-loop clients and optional
// client-side request throttling (the paper's Fig. 13 mitigation).
package ycsb

import (
	"fmt"
	"math"
	"math/rand"

	"ramcloud/internal/client"
	"ramcloud/internal/sim"
)

// OpKind is a workload operation type.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpUpdate
)

// Distribution selects keys.
type Distribution uint8

// Key distributions. The paper uses Uniform throughout.
const (
	Uniform Distribution = iota + 1
	Zipfian
)

// Workload is a YCSB workload specification.
type Workload struct {
	Name        string
	ReadProp    float64
	UpdateProp  float64
	RecordCount int
	RecordSize  int // value bytes per record (paper: 1 KB)
	Dist        Distribution
}

// WorkloadA is YCSB core workload A: update-heavy, 50% reads / 50% updates.
func WorkloadA(records, size int) Workload {
	return Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5,
		RecordCount: records, RecordSize: size, Dist: Uniform}
}

// WorkloadB is YCSB core workload B: read-heavy, 95% reads / 5% updates.
func WorkloadB(records, size int) Workload {
	return Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05,
		RecordCount: records, RecordSize: size, Dist: Uniform}
}

// WorkloadC is YCSB core workload C: read-only.
func WorkloadC(records, size int) Workload {
	return Workload{Name: "C", ReadProp: 1.0, UpdateProp: 0.0,
		RecordCount: records, RecordSize: size, Dist: Uniform}
}

// ByName returns a core workload by letter.
func ByName(name string, records, size int) (Workload, error) {
	switch name {
	case "a", "A":
		return WorkloadA(records, size), nil
	case "b", "B":
		return WorkloadB(records, size), nil
	case "c", "C":
		return WorkloadC(records, size), nil
	default:
		return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
	}
}

// Key renders the YCSB-style key for a record index: "user" followed by
// the index zero-padded to ten digits, in a slice of its own.
func Key(i int) []byte { return AppendKey(nil, i) }

// AppendKey appends Key(i) to dst and returns the extended slice, so a
// caller that builds many keys (a bulk load) can carve them out of one
// buffer. Every simulated op and every loaded record builds a key, so the
// digits are written straight into place; indices the padding cannot hold
// (negative, or eleven digits and up) take the Sprintf form this must
// always equal.
func AppendKey(dst []byte, i int) []byte {
	if uint64(i) >= 1e10 { // a negative i converts to a value above 2^63
		return fmt.Appendf(dst, "user%010d", i)
	}
	dst = append(dst, "user0000000000"...)
	for j := len(dst) - 1; i > 0; j-- {
		dst[j] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// Chooser picks record indices from the workload's key distribution.
// Drivers outside this package (the real-transport YCSB mode) draw keys
// from exactly the distribution the simulated runs use.
type Chooser interface {
	Next(rng *rand.Rand) int
}

type uniformChooser struct{ n int }

func (u uniformChooser) Next(rng *rand.Rand) int { return rng.Intn(u.n) }

// zipfChooser implements the scrambled zipfian generator from the YCSB
// paper (Gray et al. method), spreading popular items across the space.
type zipfChooser struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

func newZipfChooser(n int, theta float64) *zipfChooser {
	z := &zipfChooser{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfChooser) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	// FNV-style scramble so popularity is spread over the key space.
	h := uint64(rank) * 0x9E3779B97F4A7C15
	return int(h % uint64(z.n))
}

// NewChooser returns the workload's key chooser.
func (w Workload) NewChooser() Chooser {
	switch w.Dist {
	case Zipfian:
		return newZipfChooser(w.RecordCount, 0.99)
	default:
		return uniformChooser{n: w.RecordCount}
	}
}

// NextOp draws the next operation kind from the workload mix.
func (w Workload) NextOp(rng *rand.Rand) OpKind {
	r := rng.Float64()
	if r < w.ReadProp {
		return OpRead
	}
	return OpUpdate
}

// Throttle paces a closed-loop client to a target request rate (the
// paper's client-side throttling mitigation, Fig. 13). A variable-rate
// throttle (NewVarThrottle) re-reads its target at every send slot, so a
// load phase boundary re-targets the client mid-run.
type Throttle struct {
	interval sim.Duration
	next     sim.Time
	rate     RateFunc // nil for a fixed-rate throttle
}

// RateFunc reports the instantaneous target rate (ops/s) at a virtual
// time. Load phases modulate group rates through it; a return <= 0 means
// "offer no load right now" and the client dozes until the rate returns.
type RateFunc func(now sim.Time) float64

// pausePoll is how often a client with a non-positive target rate
// re-checks whether load should resume.
const pausePoll = 100 * sim.Millisecond

// NewThrottle returns a pacer for the given ops/second; nil if rate <= 0.
func NewThrottle(rate float64) *Throttle {
	if rate <= 0 {
		return nil
	}
	return &Throttle{interval: sim.Duration(float64(sim.Second) / rate)}
}

// NewVarThrottle returns a pacer that re-derives its interval from fn at
// every send slot; nil if fn is nil.
func NewVarThrottle(fn RateFunc) *Throttle {
	if fn == nil {
		return nil
	}
	return &Throttle{rate: fn}
}

// Wait blocks until the next send slot.
func (t *Throttle) Wait(p *sim.Proc) {
	for {
		d, again := t.step(p.Now())
		if d > 0 {
			p.Sleep(d)
		}
		if !again {
			return
		}
	}
}

// step is one pass of Wait that never blocks: it returns how long to wait
// from now, and whether to step again after that wait (a variable rate
// that is not positive dozes for pausePoll and asks again) or send at its
// end. A nil throttle never waits.
func (t *Throttle) step(now sim.Time) (d sim.Duration, again bool) {
	if t == nil {
		return 0, false
	}
	if t.rate != nil {
		r := t.rate(now)
		if r <= 0 {
			return pausePoll, true
		}
		t.interval = sim.Duration(float64(sim.Second) / r)
	}
	if t.next < now {
		t.next = now
	}
	d = t.next.Sub(now)
	t.next = t.next.Add(t.interval)
	return d, false
}

// RunOptions configures one client run.
type RunOptions struct {
	Table    uint64
	Requests int
	Rate     float64 // client-side throttle in ops/s; 0 = unthrottled
	Seed     int64

	// BatchSize > 1 groups operations into MultiRead/MultiWrite RPC
	// batches (YCSB's multiget mode): each iteration draws BatchSize ops,
	// reads go out as one MultiRead and updates as one MultiWrite, each
	// split by tablet owner into at most one RPC per master.
	BatchSize int

	// Window > 1 pipelines the closed loop: up to Window operations stay
	// outstanding through the async API before the oldest is awaited.
	// Ignored when BatchSize > 1.
	Window int

	// OpenLoop switches the client from the paper's closed loop to
	// open-loop Poisson arrivals: operations are issued asynchronously at
	// exponentially distributed inter-arrival gaps targeting Rate (or
	// RateFunc) ops/s, independent of completions. Latency then includes
	// queueing delay, the metric a closed loop hides. Takes precedence
	// over BatchSize and Window. Requires Rate or RateFunc.
	OpenLoop bool

	// RateFunc, when set, overrides Rate with a time-varying target; it is
	// re-read at every send slot so load phases re-target the client
	// mid-run. Applies to throttled closed loops, batched and windowed
	// clients, and open-loop arrivals alike.
	RateFunc RateFunc

	// Stop, when > 0, stops issuing new operations at this virtual time
	// even if Requests have not been exhausted; in-flight operations are
	// still awaited. With Requests <= 0 the run is bounded by Stop alone.
	Stop sim.Time

	// Warmup fetches the tablet map before the first operation. Async
	// issue paths (OpenLoop, Window) start an op's RPC at issue only when
	// the map already routes its key; without a warmup the ops issued
	// before the first forced reap all park RPC-less and surface as a
	// spurious latency band, which would corrupt a latency-vs-load sweep.
	Warmup bool
}

// RunResult summarizes one client's run.
type RunResult struct {
	Reads    int
	Updates  int
	Errors   int
	Duration sim.Duration
}

// RunClient executes the workload on one client. The default is the
// paper's closed loop: each iteration draws an op and a key, issues it,
// and waits for completion. It runs as engine callbacks (closedLoop), and
// p is resumed only for an op that must block and at the end of the run.
// BatchSize > 1 switches to multi-op batching, Window > 1 to async
// pipelining, and OpenLoop to Poisson arrivals; those run on p.
// Latency and throughput land in the client's Stats.
func RunClient(p *sim.Proc, c *client.Client, w Workload, opts RunOptions) RunResult {
	rng := rand.New(rand.NewSource(opts.Seed))
	ch := w.NewChooser()
	th := NewThrottle(opts.Rate)
	if opts.RateFunc != nil {
		th = NewVarThrottle(opts.RateFunc)
	}
	var res RunResult
	if opts.Warmup {
		c.WarmRoutes(p)
	}
	start := p.Now()
	switch {
	case opts.OpenLoop:
		runOpenLoop(p, c, w, opts, rng, ch, &res)
	case opts.BatchSize > 1:
		runBatched(p, c, w, opts, rng, ch, th, &res)
	case opts.Window > 1:
		runPipelined(p, c, w, opts, rng, ch, th, &res)
	default:
		l := &closedLoop{p: p, eng: p.Engine(), c: c, w: w, opts: opts, rng: rng, ch: ch, th: th, res: &res}
		l.stepFn = l.step
		l.run()
	}
	res.Duration = p.Now().Sub(start)
	return res
}

// closedLoop is the paper's closed loop as engine callbacks. Each
// iteration waits out the throttle, draws an op and a key, and begins the
// op (client.BeginRead/BeginWrite); the throttle's wait and the op's
// overhead, issue and answer are scheduled callbacks, all of them step.
// The client's proc stays suspended. A callback resumes it inline
// (sim.Engine.Resume) for an op that must block, which the proc finishes
// with Op.Wait before it runs the loop on, and at the end of the run, when
// it returns. Every sequence number is drawn where a proc that runs the
// loop throughout, sleeping in Throttle.Wait and blocking in
// client.Read/Write, draws it, so the events are that proc's.
type closedLoop struct {
	p    *sim.Proc
	eng  *sim.Engine
	c    *client.Client
	w    Workload
	opts RunOptions
	rng  *rand.Rand
	ch   Chooser
	th   *Throttle
	res  *RunResult

	i      int       // iterations finished
	op     client.Op // the iteration's op, held by value
	read   bool      // op is a read
	pacing bool      // step ends a throttle wait, not a wake of op
	again  bool      // the throttle steps again after its wait
	out    outcome   // what a callback resumed the proc for
	stepFn func()    // step, bound once so scheduling it allocates nothing
}

// outcome is where the loop stands after running as far as it can
// without blocking.
type outcome uint8

const (
	waiting  outcome = iota // a callback is scheduled: step runs next
	answered                // the iteration's op is done: take the next
	blocks                  // the op must block: Op.Wait on the proc
	ends                    // the run is over: the proc returns
)

// run is the proc's part: it starts the loop and, from then on, finishes
// the ops that block, and is suspended between them.
func (l *closedLoop) run() {
	for o := l.next(); o != ends; o = l.next() {
		if o == waiting {
			l.p.Suspend()
			if o = l.out; o == ends {
				return
			}
		}
		l.count(l.op.Wait(l.p))
	}
}

// step is the loop's callback: the end of a throttle wait or a wake of
// the op in flight.
func (l *closedLoop) step() {
	var o outcome
	switch {
	case l.pacing:
		l.pacing = false
		o = l.send(l.again)
	case l.op.Step():
		return
	default:
		o = l.settled()
	}
	if o == answered {
		o = l.next()
	}
	if o != waiting {
		l.out = o
		l.eng.Resume(l.p)
	}
}

// next runs the loop from its top until an iteration has to wait or
// block, or the run is over.
func (l *closedLoop) next() outcome {
	for stepsLeft(l.i, l.p, l.opts) {
		if o := l.send(true); o != answered {
			return o
		}
	}
	return ends
}

// send starts an iteration: with pace set it steps the throttle, and once
// no wait is left it draws the op and the key and begins the op.
func (l *closedLoop) send(pace bool) outcome {
	if pace {
		if d, again := l.th.step(l.eng.Now()); d > 0 {
			l.pacing, l.again = true, again
			l.eng.Schedule(d, l.stepFn)
			return waiting
		}
	}
	key := Key(l.ch.Next(l.rng))
	var pending bool
	if l.read = l.w.NextOp(l.rng) == OpRead; l.read {
		pending = l.c.BeginRead(&l.op, l.opts.Table, key, l.stepFn)
	} else {
		pending = l.c.BeginWrite(&l.op, l.opts.Table, key, uint32(l.w.RecordSize), l.stepFn)
	}
	if pending {
		return waiting
	}
	return l.settled()
}

// settled takes the op once it no longer waits on a callback: a done op is
// counted, and one that must block is left to the proc.
func (l *closedLoop) settled() outcome {
	if !l.op.Done() {
		return blocks
	}
	l.count(l.op.Wait(l.p)) // done: returns at once
	return answered
}

// count ends the iteration with its op's result.
func (l *closedLoop) count(_ uint32, _ []byte, err error) {
	if err != nil {
		l.res.Errors++
	}
	if l.read {
		l.res.Reads++
	} else {
		l.res.Updates++
	}
	l.i++
}

// stepsLeft decides whether iteration i should issue: the request budget
// must not be exhausted and the stop time (when set) must not have
// passed. Requests <= 0 means "bounded by Stop alone" and issues nothing
// unless a stop time is set.
func stepsLeft(i int, p *sim.Proc, opts RunOptions) bool {
	if opts.Requests > 0 {
		if i >= opts.Requests {
			return false
		}
	} else if opts.Stop == 0 {
		return false
	}
	return opts.Stop == 0 || p.Now() < opts.Stop
}

// maxOutstanding caps an open-loop client's in-flight operations. A true
// open loop queues without bound when the cluster saturates; past the cap
// the client blocks on its oldest operation instead, which keeps the
// simulation's memory bounded while still exposing queueing delay in the
// measured latency.
const maxOutstanding = 512

// runOpenLoop issues operations at Poisson arrivals: inter-arrival gaps
// are exponentially distributed around the instantaneous target rate, and
// each operation goes out through the async API without waiting for the
// previous one. Completions are reaped opportunistically so latency
// captures queueing delay under overload — the regime where the paper's
// closed loop silently throttles itself.
func runOpenLoop(p *sim.Proc, c *client.Client, w Workload, opts RunOptions, rng *rand.Rand, ch Chooser, res *RunResult) {
	if opts.Rate <= 0 && opts.RateFunc == nil {
		panic("ycsb: open loop requires Rate or RateFunc")
	}
	if opts.Requests <= 0 && opts.Stop == 0 {
		panic("ycsb: open loop requires Requests or Stop")
	}
	rate := func(now sim.Time) float64 {
		if opts.RateFunc != nil {
			return opts.RateFunc(now)
		}
		return opts.Rate
	}
	var pending []*client.Op
	reap := func(op *client.Op) {
		if _, _, err := op.Wait(p); err != nil {
			res.Errors++
		}
	}
	for issued := 0; stepsLeft(issued, p, opts); {
		r := rate(p.Now())
		if r <= 0 {
			p.Sleep(pausePoll) // load trough: doze until the rate returns
			continue
		}
		p.Sleep(sim.Duration(rng.ExpFloat64() / r * float64(sim.Second)))
		if opts.Stop > 0 && p.Now() >= opts.Stop {
			break
		}
		for len(pending) > 0 && pending[0].Done() {
			reap(pending[0])
			pending = pending[1:]
		}
		if len(pending) >= maxOutstanding {
			reap(pending[0])
			pending = pending[1:]
		}
		key := Key(ch.Next(rng))
		if w.NextOp(rng) == OpRead {
			pending = append(pending, c.ReadAsync(p, opts.Table, key))
			res.Reads++
		} else {
			pending = append(pending, c.WriteAsync(p, opts.Table, key, uint32(w.RecordSize), nil))
			res.Updates++
		}
		issued++
	}
	for _, op := range pending {
		reap(op)
	}
}

// runBatched drives the workload in multi-op batches: every iteration
// draws up to BatchSize ops, sends the reads as one MultiRead and the
// updates as one MultiWrite. One simulated RPC now carries many ops, so
// both the cluster and the discrete-event engine do proportionally less
// per-op work — the scale lever the paper's closed loop lacks.
func runBatched(p *sim.Proc, c *client.Client, w Workload, opts RunOptions, rng *rand.Rand, ch Chooser, th *Throttle, res *RunResult) {
	readKeys := make([][]byte, 0, opts.BatchSize)
	writeOps := make([]client.MultiWriteOp, 0, opts.BatchSize)
	for issued := 0; stepsLeft(issued, p, opts); {
		n := opts.BatchSize
		if left := opts.Requests - issued; opts.Requests > 0 && n > left {
			n = left
		}
		readKeys = readKeys[:0]
		writeOps = writeOps[:0]
		for j := 0; j < n; j++ {
			th.Wait(p)
			key := Key(ch.Next(rng))
			if w.NextOp(rng) == OpRead {
				readKeys = append(readKeys, key)
				res.Reads++
			} else {
				writeOps = append(writeOps, client.MultiWriteOp{Key: key, ValueLen: uint32(w.RecordSize)})
				res.Updates++
			}
		}
		if len(readKeys) > 0 {
			for _, r := range c.MultiRead(p, opts.Table, readKeys) {
				if r.Err != nil {
					res.Errors++
				}
			}
		}
		if len(writeOps) > 0 {
			for _, r := range c.MultiWrite(p, opts.Table, writeOps) {
				if r.Err != nil {
					res.Errors++
				}
			}
		}
		issued += n
	}
}

// runPipelined keeps up to Window operations outstanding through the
// async API, awaiting the oldest when the window fills (a bounded
// closed loop, like YCSB with client-side pipelining).
func runPipelined(p *sim.Proc, c *client.Client, w Workload, opts RunOptions, rng *rand.Rand, ch Chooser, th *Throttle, res *RunResult) {
	window := make([]*client.Op, 0, opts.Window)
	reap := func(op *client.Op) {
		if _, _, err := op.Wait(p); err != nil {
			res.Errors++
		}
	}
	for i := 0; stepsLeft(i, p, opts); i++ {
		th.Wait(p)
		if len(window) == opts.Window {
			reap(window[0])
			copy(window, window[1:])
			window = window[:len(window)-1]
		}
		key := Key(ch.Next(rng))
		if w.NextOp(rng) == OpRead {
			window = append(window, c.ReadAsync(p, opts.Table, key))
			res.Reads++
		} else {
			window = append(window, c.WriteAsync(p, opts.Table, key, uint32(w.RecordSize), nil))
			res.Updates++
		}
	}
	for _, op := range window {
		reap(op)
	}
}

// Load fills the table through the client API (the YCSB load phase). Most
// experiments use the cluster's zero-time bulk loader instead.
func Load(p *sim.Proc, c *client.Client, w Workload, table uint64) error {
	for i := 0; i < w.RecordCount; i++ {
		if err := c.Write(p, table, Key(i), uint32(w.RecordSize), nil); err != nil {
			return fmt.Errorf("ycsb: load record %d: %w", i, err)
		}
	}
	return nil
}
