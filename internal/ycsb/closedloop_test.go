package ycsb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ramcloud/internal/client"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// procLoop is the closed loop as a proc that runs it throughout: it
// sleeps in the throttle (procThrottleWait) and blocks in client.Read and
// client.Write. It is the reference TestClosedLoopTiming holds RunClient
// to.
func procLoop(p *sim.Proc, c *client.Client, w Workload, opts RunOptions) RunResult {
	rng := rand.New(rand.NewSource(opts.Seed))
	ch := w.NewChooser()
	th := NewThrottle(opts.Rate)
	if opts.RateFunc != nil {
		th = NewVarThrottle(opts.RateFunc)
	}
	var res RunResult
	start := p.Now()
	for i := 0; stepsLeft(i, p, opts); i++ {
		procThrottleWait(th, p)
		key := Key(ch.Next(rng))
		switch w.NextOp(rng) {
		case OpRead:
			if _, _, err := c.Read(p, opts.Table, key); err != nil {
				res.Errors++
			}
			res.Reads++
		default:
			if err := c.Write(p, opts.Table, key, uint32(w.RecordSize), nil); err != nil {
				res.Errors++
			}
			res.Updates++
		}
	}
	res.Duration = p.Now().Sub(start)
	return res
}

// procThrottleWait is Throttle.Wait written as the blocking loop it was
// before Throttle.step existed.
func procThrottleWait(t *Throttle, p *sim.Proc) {
	if t == nil {
		return
	}
	if t.rate != nil {
		r := t.rate(p.Now())
		for r <= 0 {
			p.Sleep(pausePoll)
			r = t.rate(p.Now())
		}
		t.interval = sim.Duration(float64(sim.Second) / r)
	}
	now := p.Now()
	if t.next < now {
		t.next = now
	}
	if d := t.next.Sub(now); d > 0 {
		p.Sleep(d)
	}
	t.next = t.next.Add(t.interval)
}

// script is what a timingStore does to the data requests it is sent,
// numbered from 1 in arrival order: every mute-th goes unanswered, every
// wrong-th is answered WrongServer, every retry-th Retry and every
// missing-th read UnknownKey. While recovering holds, the coordinator's
// map marks the tablet recovering.
type script struct {
	mute, wrong, retry, missing int
	recovering                  func(now sim.Time) bool
}

// timingStore is a scripted coordinator and master on the default fabric,
// which log every request they receive.
type timingStore struct {
	eng   *sim.Engine
	net   *simnet.Network
	coord *rpc.Endpoint
	log   []string
}

func newTimingStore(sc script) *timingStore {
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	f := &timingStore{eng: eng, net: net, coord: rpc.NewEndpoint(eng, net, simnet.NodeID(-1))}
	master := rpc.NewEndpoint(eng, net, simnet.NodeID(1))
	every := func(k, n int) bool { return k > 0 && n%k == 0 }
	eng.Go("coord", func(p *sim.Proc) {
		for {
			req := f.coord.Inbound.Pop(p)
			f.log = append(f.log, fmt.Sprintf("%d (seq %d) map from %d", p.Now(), eng.Counts().Seq, req.From))
			recovering := sc.recovering != nil && sc.recovering(p.Now())
			f.coord.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: []wire.Tablet{
				{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1, Recovering: recovering}}})
		}
	})
	eng.Go("master", func(p *sim.Proc) {
		for n := 1; ; n++ {
			req := master.Inbound.Pop(p)
			f.log = append(f.log, fmt.Sprintf("%d (seq %d) %T from %d", p.Now(), eng.Counts().Seq, req.Msg, req.From))
			p.Sleep(2 * sim.Microsecond)
			st := wire.StatusOK
			_, read := req.Msg.(*wire.ReadReq)
			switch {
			case every(sc.mute, n):
				continue
			case every(sc.wrong, n):
				st = wire.StatusWrongServer
			case every(sc.retry, n):
				st = wire.StatusRetry
			case read && every(sc.missing, n):
				st = wire.StatusUnknownKey
			}
			if read {
				master.Reply(req, &wire.ReadResp{Status: st, Version: 1, ValueLen: 100})
			} else {
				master.Reply(req, &wire.WriteResp{Status: st, Version: 1})
			}
		}
	})
	return f
}

// closedRun is what one run of two closed-loop clients left behind.
type closedRun struct {
	log      []string // requests as the coordinator and master got them
	slots    []string // each client's send slots, when its rate is read
	results  []RunResult
	stats    []*client.Stats
	counts   sim.Counts
	finalNow sim.Time
}

// runClosed runs two clients of cfg, with seeds 1 and 2, through loop
// against a timingStore of sc. opts.RateFunc, when nil, becomes a rate too
// high to ever wait, which notes every send slot all the same.
func runClosed(sc script, cfg client.Config, w Workload, opts RunOptions, loop func(*sim.Proc, *client.Client, Workload, RunOptions) RunResult) closedRun {
	f := newTimingStore(sc)
	var r closedRun
	for i := 0; i < 2; i++ {
		c := client.New(f.eng, f.net, simnet.NodeID(100+i), f.coord.Node(), cfg)
		o := opts
		o.Seed = int64(i + 1)
		rate := opts.RateFunc
		if rate == nil && opts.Rate == 0 {
			rate = func(sim.Time) float64 { return 1e18 }
		}
		if rate != nil {
			o.RateFunc = func(now sim.Time) float64 {
				r.slots = append(r.slots, fmt.Sprintf("%d (seq %d) client %d", now, f.eng.Counts().Seq, i))
				return rate(now)
			}
		}
		r.results = append(r.results, RunResult{})
		r.stats = append(r.stats, c.Stats())
		f.eng.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			r.results[i] = loop(p, c, w, o)
		})
	}
	f.eng.Run()
	r.counts, r.finalNow, r.log = f.eng.Counts(), f.eng.Now(), f.log
	f.eng.Shutdown()
	return r
}

// TestClosedLoopTiming holds RunClient's closed loop, engine callbacks
// with a proc behind them, to procLoop, a proc throughout. For each case
// both drive two clients against the same scripted store. Every request
// must reach the store, and every send slot come, at the same instant and
// after as many sequence numbers drawn; and the results, latency
// histograms, per-second series and counters, the engine's last instant
// and the sequence numbers it drew must all be the same. The cases cover
// each way an op can block:
// a timeout with and without backoff, a reroute, a retry pause, a
// recovering tablet and an unknown table; and the throttle, at a fixed
// rate and at a variable one that dozes at rate 0.
func TestClosedLoopTiming(t *testing.T) {
	plain := client.DefaultConfig()
	plain.RPCTimeout = 5 * sim.Millisecond
	free := plain
	free.ReadOverhead, free.UpdateOverhead = 0, 0
	backoff := plain
	backoff.Backoff = client.BackoffConfig{Base: sim.Millisecond, Cap: 8 * sim.Millisecond, JitterFrac: 0.5}
	wl := WorkloadA(1000, 100)
	trough := func(now sim.Time) float64 {
		if now >= sim.Time(10*sim.Millisecond) && now < sim.Time(250*sim.Millisecond) {
			return 0
		}
		return 20_000
	}
	total := func(r closedRun, of func(s *client.Stats, res RunResult) int64) int64 {
		n := int64(0)
		for i := range r.stats {
			n += of(r.stats[i], r.results[i])
		}
		return n
	}
	maps := func(r closedRun) int64 {
		n := int64(0)
		for _, l := range r.log {
			if strings.Contains(l, " map ") {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		name  string
		sc    script
		cfg   client.Config
		opts  RunOptions
		shows string // what the run must show to cover its case
		shown func(r closedRun) bool
	}{
		{name: "reads and writes", cfg: plain, sc: script{missing: 13}, opts: RunOptions{Table: 1, Requests: 300},
			shows: "updates and keys not found", shown: func(r closedRun) bool {
				return total(r, func(_ *client.Stats, res RunResult) int64 { return int64(res.Updates * res.Errors) }) > 0
			}},
		{name: "no overhead", cfg: free, opts: RunOptions{Table: 1, Requests: 300}},
		{name: "fixed rate", cfg: plain, opts: RunOptions{Table: 1, Requests: 200, Rate: 3000},
			shows: "the rate", shown: func(r closedRun) bool { return r.results[0].Duration >= 66*sim.Millisecond }},
		{name: "rate dozes at 0", cfg: plain, opts: RunOptions{Table: 1, Stop: sim.Time(400 * sim.Millisecond), RateFunc: trough},
			shows: "dozes", shown: func(r closedRun) bool {
				dozes := 0
				for _, slot := range r.slots {
					var when sim.Time
					fmt.Sscan(slot, &when)
					if trough(when) == 0 {
						dozes++
					}
				}
				return dozes >= 4
			}},
		{name: "timeout, backoff", cfg: backoff, sc: script{mute: 7}, opts: RunOptions{Table: 1, Requests: 150},
			shows: "timeouts", shown: func(r closedRun) bool {
				return total(r, func(s *client.Stats, _ RunResult) int64 { return s.Timeouts.Value() }) > 0
			}},
		{name: "timeout, no backoff", cfg: plain, sc: script{mute: 7}, opts: RunOptions{Table: 1, Requests: 150},
			shows: "timeouts", shown: func(r closedRun) bool {
				return total(r, func(s *client.Stats, _ RunResult) int64 { return s.Timeouts.Value() }) > 0
			}},
		{name: "wrong server and retry", cfg: backoff, sc: script{wrong: 5, retry: 11}, opts: RunOptions{Table: 1, Requests: 200},
			shows: "reroutes and retries", shown: func(r closedRun) bool {
				return total(r, func(s *client.Stats, _ RunResult) int64 { return s.Retries.Value() }) > int64(maps(r))
			}},
		{name: "recovering tablet", cfg: plain, opts: RunOptions{Table: 1, Requests: 200},
			sc:    script{recovering: func(now sim.Time) bool { return now < sim.Time(120*sim.Millisecond) }},
			shows: "recovery polls", shown: func(r closedRun) bool { return maps(r) >= 6 }},
		{name: "unknown table", cfg: plain, opts: RunOptions{Table: 99, Requests: 50},
			shows: "every op failed", shown: func(r closedRun) bool {
				return total(r, func(_ *client.Stats, res RunResult) int64 { return int64(res.Errors) }) == 100
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := runClosed(c.sc, c.cfg, wl, c.opts, RunClient)
			want := runClosed(c.sc, c.cfg, wl, c.opts, procLoop)
			t.Logf("%d requests, %d slots; events %d, resumes %d (proc loop %d), seq %d",
				len(got.log), len(got.slots), got.counts.Events, got.counts.Resumes, want.counts.Resumes, got.counts.Seq)
			if i := firstDiff(got.log, want.log); i >= 0 {
				t.Fatalf("request %d of %d/%d: %q, proc loop %q", i, len(got.log), len(want.log), at(got.log, i), at(want.log, i))
			}
			if i := firstDiff(got.slots, want.slots); i >= 0 {
				t.Fatalf("send slot %d of %d/%d: %q, proc loop %q", i, len(got.slots), len(want.slots), at(got.slots, i), at(want.slots, i))
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("results %+v, proc loop %+v", got.results, want.results)
			}
			for i := range got.stats {
				if !reflect.DeepEqual(got.stats[i], want.stats[i]) {
					t.Errorf("client %d: stats %+v, proc loop %+v", i, *got.stats[i], *want.stats[i])
				}
			}
			if got.finalNow != want.finalNow || got.counts.Seq != want.counts.Seq || got.counts.Events != want.counts.Events {
				t.Errorf("engine ends at %v with %d sequence numbers and %d events; proc loop at %v with %d and %d",
					got.finalNow, got.counts.Seq, got.counts.Events, want.finalNow, want.counts.Seq, want.counts.Events)
			}
			if c.shown != nil && !c.shown(got) {
				t.Errorf("the run shows no %s", c.shows)
			}
			if got.counts.Resumes > want.counts.Resumes {
				t.Errorf("%d proc resumes, proc loop %d", got.counts.Resumes, want.counts.Resumes)
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}
