package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// TestWorkloadsTiny runs every workload end to end and traced at a tiny
// size: every metric BENCHMARK.json lists must come out, and nothing may
// fail its correctness checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := options{seed: 7, reps: 1, endToEnd: true, layers: true, ops: 2_000, outDir: t.TempDir()}
			res, err := runWorkload(name, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			for _, d := range endToEnd {
				if m, ok := res.EndToEnd.byKey[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %v %q (present %v), want > 0 %s", d.name, m.Value, m.Unit, ok, d.unit)
				}
			}
			if got := res.PerLayer.names; len(got) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(got), len(perLayer))
			}
			for _, n := range []string{"wire.encode_ns", "transport.tcp.rtt_us", "hashtable.lookup_ns", "logstore.append_ns", "sim.event_ns", "core.read_op_ns"} {
				if res.PerLayer.byKey[n].Value <= 0 {
					t.Errorf("ladder rung %s = %v, want > 0", n, res.PerLayer.byKey[n].Value)
				}
			}
			if _, tcp := res.Extra.byKey["trace.op_mean_us"]; tcp {
				if e := res.PerLayer.byKey["trace.sum_err_pct"].Value; e > 10 {
					t.Errorf("trace.sum_err_pct = %v, want <= 10", e)
				}
				shares := res.PerLayer.byKey["realnode.client.self_share"].Value +
					res.PerLayer.byKey["transport.call.self_share"].Value +
					res.PerLayer.byKey["realnode.server.handle_share"].Value
				if shares < 0.999 || shares > 1.001 {
					t.Errorf("stage shares sum to %v, want 1", shares)
				}
				if _, err := os.Stat(o.outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// own metric and workload lists from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, names[i])
		}
	}
	for _, list := range []struct {
		kind    string
		json    []struct{ Name, Unit string }
		harness []metricDef
	}{{"end-to-end", spec.EndToEnd, endToEnd}, {"per-layer", spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.harness) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, harness has %d", len(list.json), list.kind, len(list.harness))
		}
		for i, m := range list.json {
			if d := list.harness[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", list.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, c := range []struct {
		sorted   []int64
		num, den int
		want     int64
	}{
		{hundred, 50, 100, 50},
		{hundred, 99, 100, 99},
		{hundred, 999, 1000, 100},
		{hundred, 0, 100, 1},
		{hundred, 100, 100, 100},
		{[]int64{7}, 99, 100, 7},
		{[]int64{1, 2, 3}, 50, 100, 2},
		{[]int64{1, 2, 3, 4}, 50, 100, 2},
	} {
		if got := percentile(c.sorted, c.num, c.den); got != c.want {
			t.Errorf("percentile(n=%d, %d/%d) = %d, want %d", len(c.sorted), c.num, c.den, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestCover(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}}, 0, 100, 10},
		{[][2]int64{{10, 20}, {15, 30}}, 0, 100, 20},   // overlap counted once
		{[][2]int64{{40, 50}, {10, 20}}, 0, 100, 20},   // unsorted, disjoint
		{[][2]int64{{-10, 20}, {90, 120}}, 0, 100, 30}, // clipped to the parent
		{[][2]int64{{10, 50}, {20, 30}}, 0, 100, 40},   // nested
	} {
		if got := cover(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("cover(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// TestSelfTimeArithmetic builds two ops by hand — a single-call op and a
// multi-op whose two calls overlap — and checks that each layer's self
// time is its span minus what its children cover, and that the three
// self times add up to the op.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer([]int{2}, 8)
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	// Op 0 (record 5): 0..100, one call 10..90, its handler 40..60.
	tr.op(0, 5, at(0), at(100))
	tr.calls.add(span{start: 10, end: 90, rec: 5, lane: 1, parent: -1})
	tr.handles.add(span{start: 40, end: 60, rec: 5, lane: 1, parent: -1})
	// Op 1 (records 6 and 7): 200..400, calls 210..310 and 260..360
	// overlapping on 260..310, handlers 220..240 and 300..350.
	tr.op(0, 6, at(200), at(400))
	tr.calls.add(span{start: 210, end: 310, rec: 6, lane: 1, parent: -1})
	tr.calls.add(span{start: 260, end: 360, rec: 7, lane: 2, parent: -1})
	tr.handles.add(span{start: 220, end: 240, rec: 6, lane: 1, parent: -1})
	tr.handles.add(span{start: 300, end: 350, rec: 7, lane: 2, parent: -1})
	// A handler for a call nobody made: it must be reported, not hidden.
	tr.handles.add(span{start: 500, end: 530, rec: 9, lane: 1, parent: -1})

	keys := [][]int32{{5}, {6, 7}}
	st, calls, handles := tr.analyze(tr.ops[0], func(o int) (int, int) { return 0, o },
		func(_, seq int) []int32 { return keys[seq] })

	// Op 0: client 100-80=20, call 80-20=60, handle 20.
	// Op 1: calls cover 210..360 = 150; handlers cover 20+50 = 70:
	// client 200-150=50, call 150-70=80, handle 70.
	want := selfTimes{calls: 2, rpcs: 3, orphans: 1,
		opUs: 0.150, clientUs: 0.035, callUs: 0.070, handleUs: 0.045}
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if st.calls != want.calls || st.rpcs != want.rpcs || st.orphans != want.orphans ||
		!near(st.opUs, want.opUs) || !near(st.clientUs, want.clientUs) ||
		!near(st.callUs, want.callUs) || !near(st.handleUs, want.handleUs) {
		t.Errorf("self times = %+v, want %+v", st, want)
	}
	if sum := st.clientUs + st.callUs + st.handleUs; !near(sum, st.opUs) {
		t.Errorf("self times sum to %v, op mean is %v", sum, st.opUs)
	}
	// The orphan's 30 ns against 300 ns of ops.
	if !near(st.sumErrPct, 10) {
		t.Errorf("sumErrPct = %v, want 10", st.sumErrPct)
	}
	if calls[1].parent != 1 || calls[2].parent != 1 || handles[2].parent != 2 || handles[3].parent != -1 {
		t.Errorf("links: calls %+v handles %+v", calls, handles)
	}
}

func TestMemTransport(t *testing.T) {
	tr := newMemTransport()
	var served atomic.Int64
	ln, err := tr.Listen("ignored:0", transport.HandlerFunc(func(remote string, msg wire.Message) wire.Message {
		served.Add(1)
		switch m := msg.(type) {
		case *wire.PingReq:
			return &wire.PingResp{Seq: m.Seq}
		default:
			return nil // dropped: the caller must time out
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	resp, err := conn.Call(ctx, &wire.PingReq{Seq: 41})
	if err != nil || resp.(*wire.PingResp).Seq != 41 {
		t.Fatalf("Call = %v, %v", resp, err)
	}
	pc, err := conn.(transport.Starter).Start(ctx, &wire.PingReq{Seq: 42})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := pc.Wait(ctx); err != nil || resp.(*wire.PingResp).Seq != 42 {
		t.Fatalf("Start/Wait = %v, %v", resp, err)
	}

	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := conn.Call(short, &wire.ReadReq{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("dropped request: err = %v, want deadline exceeded", err)
	}

	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call(ctx, &wire.PingReq{}); !errors.Is(err, transport.ErrConnLost) {
		t.Errorf("call after listener close: err = %v, want ErrConnLost", err)
	}
	pc, err = conn.(transport.Starter).Start(ctx, &wire.PingReq{})
	if err != nil {
		t.Fatalf("Start after listener close: %v (the failure belongs to Wait)", err)
	}
	if _, err := pc.Wait(ctx); !errors.Is(err, transport.ErrConnLost) {
		t.Errorf("wait after listener close: err = %v, want ErrConnLost", err)
	}

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call(ctx, &wire.PingReq{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("call on closed conn: err = %v, want ErrClosed", err)
	}
	if _, err := conn.(transport.Starter).Start(ctx, &wire.PingReq{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("start on closed conn: err = %v, want ErrClosed", err)
	}
	if got := served.Load(); got != 3 {
		t.Errorf("handler ran %d times, want 3", got)
	}
}

// stallTransport is a memTransport whose stallAt-th data-plane call takes
// stall longer than it should: a server that freezes once.
type stallTransport struct {
	*memTransport
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (t *stallTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := t.memTransport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &stallConn{memConn: conn.(*memConn), t: t}, nil
}

type stallConn struct {
	*memConn
	t *stallTransport
}

func (c *stallConn) maybeStall(msg wire.Message) {
	if firstRec(msg) >= 0 && c.t.calls.Add(1) == c.t.stallAt {
		time.Sleep(c.t.stall)
	}
}

func (c *stallConn) Call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	c.maybeStall(msg)
	return c.memConn.Call(ctx, msg)
}

func (c *stallConn) Start(ctx context.Context, msg wire.Message) (transport.PendingCall, error) {
	c.maybeStall(msg)
	return c.memConn.Start(ctx, msg)
}

// TestOpenLoopChargesStallToLaterOps is the coordinated-omission check.
// One call stalls for 50 ms while ops keep coming due every 500 µs. An
// honest open loop times each op from when it was due, so every op that
// came due during the stall carries what was left of it; a closed loop,
// or timing from the actual send, would show one slow op and hide the
// hundred users who were kept waiting.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const (
		rate    = 2_000
		ops     = 200
		stallAt = 50
		stall   = 50 * time.Millisecond
	)
	spec := tcpSpecs[3].scaled(ops)
	d := buildDataset(spec.mix)
	tr := &stallTransport{memTransport: newMemTransport(), stall: stall}
	c, err := bootCluster(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	if err := c.load(d); err != nil {
		t.Fatal(err)
	}
	s := genStream(spec.mix, 1, ops)
	tally := newTally(time.Now(), ops, len(d.keys))
	tr.stallAt = tr.calls.Load() + stallAt
	st := driveOpen(c, d, s, rate, 0, nil, tally)
	if tally.failed != 0 {
		t.Fatalf("%d ops failed: %v", tally.failed, tally.firstErr)
	}
	if len(tally.lats) != ops || len(st.lagNs) != ops {
		t.Fatalf("%d latencies, %d lags, want %d", len(tally.lats), len(st.lagNs), ops)
	}
	// Op k is due at k*500µs; the stall begins at op 49's send (24.5 ms)
	// and ends at 74.5 ms. Op k in (49, 149) was due inside it and cannot
	// complete before it ends.
	interval := time.Second / rate
	stallEnd := time.Duration(stallAt-1)*interval + stall
	slack := 2 * time.Millisecond
	for k := stallAt - 1; k < stallAt+80; k++ {
		wantAtLeast := stallEnd - time.Duration(k)*interval - slack
		if got := time.Duration(tally.lats[k]); got < wantAtLeast {
			t.Errorf("op %d: latency %v from intended send, want >= %v: the stall was omitted", k, got, wantAtLeast)
		}
	}
	if got := time.Duration(tally.lats[stallAt-10]); got > stall/2 {
		t.Errorf("op before the stall took %v", got)
	}
	if st.late < 80 {
		t.Errorf("generator reported %d late ops, want the ~100 it could not issue on time", st.late)
	}
}
