package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"ramcloud/internal/core"
	"ramcloud/internal/transport"
)

// metricDef names one metric of BENCHMARK.json and gives its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are BENCHMARK.json's lists, in its order (a test
// holds the two together). The contract wants every listed metric from
// every workload, so a layer metric that does not exist on a workload's
// half of the system reads 0 there ("not on this workload's path"), and
// only metrics without a time unit are listed if they can do so — a time
// is always measured. The rest are the Extra set of a workloadResult.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"kops", "kops/s"}, {"p50_us", "us"}, {"within_limit_frac", "ratio"},
	{"cpu_us_per_op", "us"}, {"allocs_per_op", "count"}, {"heap_mb_peak", "MiB"},
}

var perLayer = []metricDef{
	// The ladder: isolated rungs on the workload's own op stream.
	{"ycsb.gen_ns", "ns"},
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.allocs_per_msg", "count"},
	{"wire.bytes_per_op", "B"}, {"wire.size_ns", "ns"},
	{"transport.frame.write_ns", "ns"}, {"transport.frame.read_ns", "ns"},
	{"transport.tcp.rtt_us", "us"}, {"transport.tcp.pipelined_us", "us"}, {"transport.tcp.allocs_per_call", "count"},
	{"hashtable.hashkey_ns", "ns"}, {"hashtable.lookup_ns", "ns"}, {"hashtable.replace_ns", "ns"},
	{"hashtable.overflow_buckets", "count"},
	{"logstore.append_ns", "ns"}, {"logstore.get_ns", "ns"}, {"logstore.markdead_ns", "ns"},
	{"logstore.rolls", "count"}, {"logstore.bytes_per_user_byte", "ratio"},
	{"sim.event_ns", "ns"}, {"sim.proc_handoff_ns", "ns"}, {"simnet.send_ns", "ns"},
	{"rpc.call_ns", "ns"}, {"metrics.hist_record_ns", "ns"},
	{"core.read_op_ns", "ns"}, {"core.write_op_ns", "ns"}, {"core.multiread_op_ns", "ns"},
	// The traced repetition's process accounting.
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_bytes_per_op", "B"},
	{"bench.fail_frac", "ratio"}, {"trace.overhead_pct", "%"}, {"trace.sum_err_pct", "%"},
	// The TCP path's stage table and counters; 0 on sim-*.
	{"realnode.client.self_share", "ratio"}, {"transport.call.self_share", "ratio"},
	{"realnode.server.handle_share", "ratio"},
	{"transport.call.per_op", "count"},
	{"realnode.client.retries_per_kop", "count"}, {"realnode.client.refreshes", "count"},
	{"realnode.server.ops_share_max", "ratio"}, {"realnode.server.wrong_server", "count"},
	{"realnode.direct.allocs_per_op", "count"},
	{"bench.loadgen.late_frac", "ratio"},
	// The simulator's cells; 0 on tcp-*, and on the sim workload that
	// does not run the cell.
	{"core.runner.parallel_eff", "ratio"}, {"core.cell_share_max", "ratio"}, {"core.paper_err_pct", "%"},
	{"core.anchor.read-1s-30c-ops.err_pct", "%"}, {"core.anchor.read-10s-10c-ops.err_pct", "%"},
	{"core.anchor.cpu-1c-pct.err_pct", "%"}, {"core.anchor.power-1c-w.err_pct", "%"},
	{"core.anchor.update-10c-ops.err_pct", "%"}, {"core.anchor.update-90c-ops.err_pct", "%"},
	{"core.anchor.rf1-rf4-drop-pct.err_pct", "%"},
	{"energy.ops_per_joule.c-10s-30c", "ops/J"}, {"energy.ops_per_joule.c-1s-30c", "ops/J"},
	{"energy.ops_per_joule.c-10s-10c", "ops/J"}, {"energy.ops_per_joule.c-1s-1c", "ops/J"},
	{"energy.ops_per_joule.a-10s-90c", "ops/J"}, {"energy.ops_per_joule.a-20s-10c-rf4", "ops/J"},
	{"energy.ops_per_joule.a-10s-10c", "ops/J"}, {"energy.ops_per_joule.a-20s-10c-rf1", "ops/J"},
}

// units maps every listed metric to its unit: the one place a listed
// metric's unit is written down.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// finishLayers fills in the per-layer metrics this workload does not have
// and puts the set in BENCHMARK.json's order.
func finishLayers(set *metricSet) {
	ordered := metricSet{}
	for _, d := range perLayer {
		ordered.put(d.name, metric{Value: set.byKey[d.name].Value, Unit: d.unit})
	}
	*set = ordered
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// gcLayers records the garbage collector's share of a window.
func gcLayers(l *metricSet, w *window, ops float64) {
	l.one("runtime.gc_cycles", float64(w.gcCycles))
	l.one("runtime.gc_pause_ms", float64(w.gcPause)/float64(time.Millisecond))
	l.one("runtime.alloc_bytes_per_op", float64(w.allocBytes)/ops)
}

// column collects one value per repetition.
func column[R any](reps []R, f func(R) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// runTCPWorkload runs a TCP workload's end-to-end repetitions, its traced
// run, or both.
func runTCPWorkload(spec tcpSpec, o options) (*workloadResult, error) {
	if o.ops > 0 {
		spec = spec.scaled(o.ops)
	}
	res := &workloadResult{Name: spec.name}
	d := buildDataset(spec.mix)
	lanes := nWorkers
	if spec.mode == modeOpen {
		lanes = 1
	}
	streams := make([]opStream, lanes)
	perLane := split(spec.ops)
	for i := range streams {
		n := perLane[i]
		if spec.mode == modeOpen {
			n = spec.ops
		}
		streams[i] = genStream(spec.mix, streamSeed(o.seed, i), n)
	}
	warm := genStream(spec.mix, streamSeed(o.seed, warmupLane), min(warmupOps, spec.ops))

	account := func(rep tcpRep) {
		res.Attempted += int64(rep.attempted)
		if rep.failed > 0 {
			res.fail(rep.failed, rep.firstErr.Error())
		}
		if rep.retries > 0 {
			res.fail(int(rep.retries), fmt.Sprintf("%d client retries on a healthy cluster", rep.retries))
		}
	}

	if o.endToEnd {
		var reps []tcpRep
		var measured time.Duration
		for o.more(len(reps), spec.reps, measured) {
			rep, err := runTCPRep(spec, d, streams, warm, &transport.TCP{}, false)
			if err != nil {
				return nil, err
			}
			account(rep)
			measured += rep.wall
			reps = append(reps, rep)
		}
		samples := len(reps[0].lats)
		e := &res.EndToEnd
		var setups []float64
		for _, r := range reps {
			setups = append(setups, r.setups...)
		}
		e.reps("setup_s", setups, 0)
		kopsAll, kopsRep := fastState(reps, 95, wholeKops, func(s slice) float64 { return s.kops })
		e.put("kops", metric{Value: kopsAll, Unit: units["kops"], Reps: kopsRep})
		p50All, p50Rep := fastState(reps, 5, wholeP50, func(s slice) float64 { return s.p50Us })
		e.put("p50_us", metric{Value: p50All, Unit: units["p50_us"], Reps: p50Rep, Samples: samples})
		e.reps("within_limit_frac", column(reps, func(r tcpRep) float64 { return float64(r.within) / float64(len(r.lats)) }), samples)
		cpuAll, cpuRep := fastState(reps, 5, wholeCPU, func(s slice) float64 { return s.cpuUsPer })
		e.put("cpu_us_per_op", metric{Value: cpuAll, Unit: units["cpu_us_per_op"], Reps: cpuRep})
		e.reps("allocs_per_op", column(reps, func(r tcpRep) float64 { return float64(r.win.mallocs) / float64(r.windowOps) }), 0)
		e.reps("heap_mb_peak", column(reps, func(r tcpRep) float64 { return r.win.heapPeakMiB }), 0)
		// Tail percentiles do not repeat within a tenth on a shared
		// two-core box, so they are diagnostics, not regression gates.
		for _, tail := range []struct {
			name     string
			num, den int
		}{{"realnode.client.p99_us", 99, 100}, {"realnode.client.p999_us", 999, 1000}} {
			v := column(reps, func(r tcpRep) float64 { return float64(percentile(r.lats, tail.num, tail.den)) / 1e3 })
			res.Extra.put(tail.name, metric{Value: median(v), Unit: "us", Reps: v, Samples: samples})
		}
	}

	if o.layers {
		// The untraced reference and the traced repetition differ by the
		// span decorator alone; their throughputs give the overhead.
		ref, err := runTCPRep(spec, d, streams, warm, &transport.TCP{}, false)
		if err != nil {
			return nil, err
		}
		account(ref)
		traced, err := runTCPRep(spec, d, streams, warm, &transport.TCP{}, true)
		if err != nil {
			return nil, err
		}
		account(traced)
		kops := func(r tcpRep) float64 {
			v, _ := fastState([]tcpRep{r}, 95, wholeKops, func(s slice) float64 { return s.kops })
			return v
		}
		ops := float64(traced.windowOps)

		l := &res.PerLayer
		batch := 1
		if spec.mode == modeBatch {
			batch = spec.batch
		}
		rungs, err := runLadder(spec.mix, batch, d, streams[0], o.seed, o.ladderDiv())
		if err != nil {
			return nil, err
		}
		for _, m := range rungs {
			l.one(m.name, m.value)
		}
		gcLayers(l, traced.win, ops)
		l.one("trace.overhead_pct", 100*(kops(ref)-kops(traced))/kops(ref))

		st := traced.trace.self
		l.one("trace.sum_err_pct", st.sumErrPct)
		l.one("realnode.client.self_share", st.clientUs/st.opUs)
		l.one("transport.call.self_share", st.callUs/st.opUs)
		l.one("realnode.server.handle_share", st.handleUs/st.opUs)
		l.one("transport.call.per_op", float64(st.rpcs)/ops)
		l.one("realnode.client.retries_per_kop", 1e3*float64(traced.retries)/ops)
		l.one("realnode.client.refreshes", float64(traced.refreshes))
		l.one("realnode.server.ops_share_max", traced.shareMax)
		l.one("realnode.server.wrong_server", float64(traced.wrongServer))
		if st.dropped > 0 {
			res.fail(1, fmt.Sprintf("trace buffers dropped %d spans", st.dropped))
		}

		x := &res.Extra
		x.extra("trace.op_mean_us", "us", st.opUs)
		x.extra("realnode.client.self_us", "us", st.clientUs)
		x.extra("transport.call.self_us", "us", st.callUs)
		x.extra("realnode.server.handle_us", "us", st.handleUs)
		x.extra("realnode.coordinator.boot_ms", "ms", traced.bootMs)
		if spec.mode == modeOpen {
			lag := slices.Sorted(slices.Values(ref.open.lagNs))
			x.extra("bench.loadgen.lag_p99_us", "us", float64(percentile(lag, 99, 100))/1e3)
			x.extra("realnode.client.open_p99_us", "us", float64(percentile(ref.lats, 99, 100))/1e3)
			l.one("bench.loadgen.late_frac", float64(ref.open.late)/float64(len(ref.open.lagNs)))
		}

		// The same client and servers without the network path.
		direct, err := runDirect(spec, d, streams[0], warm)
		if err != nil {
			return nil, err
		}
		account(direct)
		x.extra("realnode.direct.op_us", "us", us(direct.wall)/float64(direct.windowOps))
		l.one("realnode.direct.allocs_per_op", float64(direct.win.mallocs)/float64(direct.windowOps))

		path := filepath.Join(o.outDir, "trace-"+spec.name+".json")
		if err := writeTrace(path, traced.trace.ops, traced.trace.calls, traced.trace.handles, traced.trace.seqOf); err != nil {
			return nil, fmt.Errorf("write span file: %w", err)
		}
		l.one("bench.fail_frac", float64(res.Failed)/float64(res.Attempted))
		finishLayers(l)
	}
	return res, nil
}

// Whole-window values of one repetition: what the slices refine, and the
// fallback when a window is too short to slice.
func wholeKops(r tcpRep) float64 { return float64(len(r.lats)) / r.wall.Seconds() / 1e3 }
func wholeP50(r tcpRep) float64  { return float64(percentile(r.lats, 50, 100)) / 1e3 }
func wholeCPU(r tcpRep) float64  { return us(r.win.cpu-r.open.cpu) / float64(r.windowOps) }

// minSlices is how many slices a repetition needs before a quantile over
// them means anything.
const minSlices = 10

// fastState returns the pct-th percentile of one slice field, pooled over
// every repetition's slices and for each repetition alone: the 95th for a
// rate, the 5th for a time. That is the value in the faster of the box's
// two speed states (see sliceStats) as long as the state held for a
// twentieth of the run, which it has in every run observed; the median
// would be one state or the other depending on their share, which the
// host decides. Repetitions too short to slice fall back to whole.
func fastState(reps []tcpRep, pct int, whole func(tcpRep) float64, field func(slice) float64) (pooled float64, perRep []float64) {
	var all []float64
	for _, r := range reps {
		if len(r.slices) < minSlices {
			perRep = append(perRep, whole(r))
			continue
		}
		vals := column(r.slices, field)
		slices.Sort(vals)
		perRep = append(perRep, percentile(vals, pct, 100))
		all = append(all, vals...)
	}
	if len(all) == 0 {
		return median(perRep), perRep
	}
	slices.Sort(all)
	return percentile(all, pct, 100), perRep
}

// directOps is how much of the stream the in-memory rung replays.
const directOps = 30_000

// runDirect replays a prefix of one worker's stream, closed loop on one
// goroutine, against a cluster on the in-memory transport.
func runDirect(spec tcpSpec, d *dataset, s, warm opStream) (tcpRep, error) {
	if s.len() > directOps {
		s = s.slice(0, directOps)
	}
	if spec.mode == modeOpen {
		spec.mode = modeSync
	}
	return runTCPRep(spec, d, []opStream{s}, warm, newMemTransport(), false)
}

// runSimWorkload runs a simulator workload's end-to-end repetitions, its
// per-cell run, or both.
func runSimWorkload(spec simSpec, o options) (*workloadResult, error) {
	scale := 1.0
	if o.ops > 0 {
		scale = float64(o.ops) / 1_000_000
	}
	res := &workloadResult{Name: spec.name}
	cells := spec.cells(o.seed, scale)

	if o.endToEnd {
		var reps []simRep
		var measured time.Duration
		for o.more(len(reps), spec.reps, measured) {
			rep := runSimRep(spec, cells, o.seed, scale)
			measured += rep.win.wall
			reps = append(reps, rep)
		}
		res.Attempted = int64(len(reps) * len(cells))
		for _, why := range simFailures(cells, reps) {
			res.fail(1, why)
		}

		e := &res.EndToEnd
		var setups []float64
		for _, r := range reps {
			setups = append(setups, r.setups...)
		}
		e.reps("setup_s", setups, 0)
		e.reps("kops", column(reps, func(r simRep) float64 { return float64(r.ops) / r.win.wall.Seconds() / 1e3 }), 0)
		// No simulated op has a latency in host time; the closest thing a
		// user of the simulator waits for is host time per simulated op.
		e.reps("p50_us", column(reps, func(r simRep) float64 { return us(r.win.wall) / float64(r.ops) }), 0)
		e.reps("within_limit_frac", column(reps, func(r simRep) float64 {
			ok := 0
			for ci, cr := range r.results {
				if len(checkCell(cells[ci], cr)) == 0 {
					ok++
				}
			}
			return float64(ok) / float64(len(cells))
		}), len(cells))
		e.reps("cpu_us_per_op", column(reps, func(r simRep) float64 { return us(r.win.cpu) / float64(r.ops) }), 0)
		e.reps("allocs_per_op", column(reps, func(r simRep) float64 { return float64(r.win.mallocs) / float64(r.ops) }), 0)
		e.reps("heap_mb_peak", column(reps, func(r simRep) float64 { return r.win.heapPeakMiB }), 0)
	}

	if o.layers {
		l, x := &res.PerLayer, &res.Extra
		d := buildDataset(spec.mix)
		stream := genStream(spec.mix, streamSeed(o.seed, 0), ladderOps)
		rungs, err := runLadder(spec.mix, 1, d, stream, o.seed, o.ladderDiv())
		if err != nil {
			return nil, err
		}
		for _, m := range rungs {
			l.one(m.name, m.value)
		}

		// One pooled repetition for the parallel wall time, then every
		// cell alone and serially: the simulator's stage table.
		pooled := runSimRep(spec, cells, o.seed, scale)
		core.ResetMemo()
		byName := make(map[string]*core.Result)
		cellS := make(map[string]float64)
		var serial, slowest float64
		for _, c := range cells {
			t0 := time.Now()
			r := core.Run(c)
			s := time.Since(t0).Seconds()
			byName[c.Name], cellS[c.Name] = r, s
			serial += s
			if s > slowest {
				slowest = s
			}
			x.extra("core.cell_s."+c.Name, "s", s)
			if c.Clients > 0 {
				l.one("energy.ops_per_joule."+c.Name, r.OpsPerJoule)
			}
		}
		res.Attempted += int64(2 * len(cells))
		serialRep := simRep{results: make([]*core.Result, len(cells))}
		for i, c := range cells {
			serialRep.results[i] = byName[c.Name]
		}
		for _, why := range simFailures(cells, []simRep{pooled, serialRep}) {
			res.fail(1, why)
		}

		x.extra("core.cell_s_max", "s", slowest)
		workers := min(core.NewRunner(0).Workers(), len(cells))
		l.one("core.runner.parallel_eff", serial/(float64(workers)*pooled.win.wall.Seconds()))
		l.one("core.cell_share_max", slowest/serial)
		perAnchor, mean := paperErr(spec.name, byName)
		l.one("core.paper_err_pct", mean)
		for name, e := range perAnchor {
			l.one("core.anchor."+name+".err_pct", e)
		}
		if rf4, base := byName["a-20s-10c-rf4"], byName["a-10s-10c"]; rf4 != nil && base != nil {
			x.extra("server.repl_op_ns", "ns", 1e9*(cellS["a-20s-10c-rf4"]/float64(rf4.TotalOps)-cellS["a-10s-10c"]/float64(base.TotalOps)))
		}
		if rec := byName["rec-9s-rf4"]; rec != nil {
			x.extra("coordinator.recovery_host_s", "s", cellS["rec-9s-rf4"])
			x.extra("coordinator.recovery_sim_s", "sim_s", rec.RecoveryTime.Seconds())
		}
		gcLayers(l, pooled.win, float64(pooled.ops))
		l.one("bench.fail_frac", float64(res.Failed)/float64(res.Attempted))
		finishLayers(l)
	}
	return res, nil
}
