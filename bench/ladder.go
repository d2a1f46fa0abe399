package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"ramcloud"
	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/metrics"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simnet"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
	"ramcloud/internal/ycsb"
)

// The ladder measures each layer alone, from outside, by timing calls
// into its public functions. Every rung replays the workload's own op
// stream on one goroutine, so a rung's number is that layer's cost for
// this workload's keys, sizes and batch shape — not a generic
// micro-benchmark. Rungs take the median of ladderRounds passes.
const (
	ladderOps    = 32_768 // stream prefix each rung replays
	ladderRounds = 3
	benchTable   = 1
)

// sink keeps the compiler from discarding a rung's measured call.
var sink uint64

// layerMetric is one named per-layer value.
type layerMetric struct {
	name  string
	value float64
}

type ladder struct {
	out []layerMetric
	div int // iteration counts are divided by this; 1 except in tests
}

// count scales a rung's full iteration count.
func (l *ladder) count(full int) int { return max(full/l.div, 16) }

func (l *ladder) add(name string, value float64) {
	l.out = append(l.out, layerMetric{name, value})
}

// ownerOf mirrors the coordinator's table layout: the hash space split
// into nServers uniform ranges.
func ownerOf(keyHash uint64) int {
	step := ^uint64(0)/nServers + 1
	return int(keyHash / step)
}

// wireMessages builds the request and response messages the stream puts
// on the wire: one pair per op, or per round one MultiRead and one
// MultiWrite pair per owning server.
func wireMessages(d *dataset, s opStream, batch int) []wire.Message {
	var msgs []wire.Message
	if batch <= 1 {
		for i, rec := range s.rec {
			if s.read[i] {
				msgs = append(msgs,
					&wire.ReadReq{Table: benchTable, Key: d.keys[rec]},
					&wire.ReadResp{Status: wire.StatusOK, Version: 1, ValueLen: recordSize, Value: d.vals[rec]})
			} else {
				msgs = append(msgs,
					&wire.WriteReq{Table: benchTable, Key: d.keys[rec], ValueLen: recordSize, Value: d.vals[rec]},
					&wire.WriteResp{Status: wire.StatusOK, Version: 1})
			}
		}
		return msgs
	}
	calls, isRead := batchCalls(s, batch)
	for k, recs := range calls {
		var byOwner [nServers][]int32
		for _, rec := range recs {
			o := ownerOf(hashtable.HashKey(benchTable, d.keys[rec]))
			byOwner[o] = append(byOwner[o], rec)
		}
		for _, group := range byOwner {
			if len(group) == 0 {
				continue
			}
			if isRead[k] {
				req := &wire.MultiReadReq{}
				resp := &wire.MultiReadResp{Status: wire.StatusOK}
				for _, rec := range group {
					req.Items = append(req.Items, wire.MultiReadItem{Table: benchTable, Key: d.keys[rec]})
					resp.Items = append(resp.Items, wire.MultiReadResult{Status: wire.StatusOK, Version: 1, ValueLen: recordSize, Value: d.vals[rec]})
				}
				msgs = append(msgs, req, resp)
			} else {
				req := &wire.MultiWriteReq{}
				resp := &wire.MultiWriteResp{Status: wire.StatusOK}
				for _, rec := range group {
					req.Items = append(req.Items, wire.MultiWriteItem{Table: benchTable, Key: d.keys[rec], ValueLen: recordSize, Value: d.vals[rec]})
					resp.Items = append(resp.Items, wire.MultiWriteResult{Status: wire.StatusOK, Version: 1})
				}
				msgs = append(msgs, req, resp)
			}
		}
	}
	return msgs
}

// runLadder measures every isolated rung for one workload's mix. div
// shrinks every iteration count (tests); measurements pass 1.
func runLadder(mix ycsb.Workload, batch int, d *dataset, s opStream, seed int64, div int) ([]layerMetric, error) {
	l := &ladder{div: div}
	if n := l.count(ladderOps); s.len() > n {
		s = s.slice(0, n)
	}
	n := s.len()

	// ycsb: the generators' cost per op. It is paid before the window, so
	// it can move no end-to-end metric; recorded to show that.
	l.add("ycsb.gen_ns", timeNs(ladderRounds, n, func() {
		rng := rand.New(rand.NewSource(seed))
		ch := mix.NewChooser()
		for i := 0; i < n; i++ {
			sink += uint64(len(ycsb.Key(ch.Next(rng))))
		}
	}))

	if err := l.wire(d, s, batch); err != nil {
		return nil, err
	}
	if err := l.tcp(d, s); err != nil {
		return nil, err
	}
	l.store(d, s)
	l.simulator()
	l.facade(d)
	return l.out, nil
}

// wire measures the codec and the framing on the stream's own messages.
func (l *ladder) wire(d *dataset, s opStream, batch int) error {
	msgs := wireMessages(d, s, batch)
	nm := len(msgs)
	frames := make([][]byte, nm)
	total := 0
	for i, m := range msgs {
		b, err := wire.AppendEnvelope(nil, wire.Envelope{RPCID: uint64(i), Msg: m})
		if err != nil {
			return fmt.Errorf("encode %T: %w", m, err)
		}
		frames[i] = b
		total += len(b)
	}
	l.add("wire.bytes_per_op", float64(total)/float64(s.len()))

	var buf []byte
	var encErr, decErr error
	encode := func() {
		for i, m := range msgs {
			b, err := wire.AppendEnvelope(buf[:0], wire.Envelope{RPCID: uint64(i), Msg: m})
			if err != nil {
				encErr = err
			}
			buf = b
		}
	}
	decode := func() {
		for _, f := range frames {
			env, err := wire.Unmarshal(f)
			if err != nil {
				decErr = err
			}
			sink += env.RPCID
		}
	}
	l.add("wire.encode_ns", timeNs(ladderRounds, nm, encode))
	l.add("wire.decode_ns", timeNs(ladderRounds, nm, decode))
	l.add("wire.allocs_per_msg", float64(mallocsDuring(func() { encode(); decode() }))/float64(nm))
	l.add("wire.size_ns", timeNs(ladderRounds, nm, func() {
		for _, m := range msgs {
			sink += uint64(m.WireSize())
		}
	}))

	var out bytes.Buffer
	l.add("transport.frame.write_ns", timeNs(ladderRounds, nm, func() {
		for i, m := range msgs {
			out.Reset()
			if err := transport.WriteFrame(&out, wire.Envelope{RPCID: uint64(i), Msg: m}); err != nil {
				encErr = err
			}
		}
	}))
	all := bytes.Join(frames, nil)
	l.add("transport.frame.read_ns", timeNs(ladderRounds, nm, func() {
		r := bytes.NewReader(all)
		for range frames {
			env, err := transport.ReadFrame(r)
			if err != nil {
				decErr = err
			}
			sink += env.RPCID
		}
	}))
	if encErr != nil {
		return fmt.Errorf("wire rung: encode: %w", encErr)
	}
	if decErr != nil {
		return fmt.Errorf("wire rung: decode: %w", decErr)
	}
	return nil
}

// tcp measures one transport.TCP connection over loopback against a
// handler that does no work: the floor under every RPC.
func (l *ladder) tcp(d *dataset, s opStream) error {
	tr := &transport.TCP{}
	resp := &wire.ReadResp{Status: wire.StatusOK, Version: 1, ValueLen: recordSize, Value: d.vals[0]}
	ln, err := tr.Listen("127.0.0.1:0", transport.HandlerFunc(func(string, wire.Message) wire.Message { return resp }))
	if err != nil {
		return fmt.Errorf("tcp rung: %w", err)
	}
	defer ln.Close()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		return fmt.Errorf("tcp rung: %w", err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := &wire.ReadReq{Table: benchTable, Key: d.keys[s.rec[0]]}

	var callErr error
	syncCalls := l.count(3_000)
	depth1 := func() {
		for i := 0; i < syncCalls; i++ {
			if _, err := conn.Call(ctx, req); err != nil {
				callErr = err
			}
		}
	}
	depth1() // dial and fill the pools
	l.add("transport.tcp.rtt_us", timeNs(ladderRounds, syncCalls, depth1)/1e3)
	l.add("transport.tcp.allocs_per_call", float64(mallocsDuring(depth1))/float64(syncCalls))

	st := conn.(transport.Starter)
	const depth = 16
	pipeCalls := l.count(20_000)
	l.add("transport.tcp.pipelined_us", timeNs(ladderRounds, pipeCalls, func() {
		var ring [depth]transport.PendingCall
		for i := 0; i < pipeCalls+depth; i++ {
			if p := ring[i%depth]; p != nil {
				if _, err := p.Wait(ctx); err != nil {
					callErr = err
				}
				ring[i%depth] = nil
			}
			if i < pipeCalls {
				p, err := st.Start(ctx, req)
				if err != nil {
					callErr = err
					continue
				}
				ring[i%depth] = p
			}
		}
	})/1e3)
	if callErr != nil {
		return fmt.Errorf("tcp rung: %w", callErr)
	}
	return nil
}

// store replays the stream against the master's index and log. Every op
// is replayed as each operation in turn, so a read-only workload still
// measures the write path on its own key sequence.
func (l *ladder) store(d *dataset, s opStream) {
	n := s.len()
	hashes := make([]uint64, len(d.keys))
	l.add("hashtable.hashkey_ns", timeNs(ladderRounds, n, func() {
		for _, rec := range s.rec {
			hashes[rec] = hashtable.HashKey(benchTable, d.keys[rec])
		}
	}))
	for rec, key := range d.keys {
		hashes[rec] = hashtable.HashKey(benchTable, key)
	}

	// The index maps each record to its own index, standing in for the
	// packed log reference; eq plays the master's key comparison.
	ht := hashtable.New(1 << 12)
	for rec := range d.keys {
		ht.Insert(hashes[rec], uint64(rec))
	}
	var want uint64
	eq := func(ref uint64) bool { return ref == want }
	l.add("hashtable.lookup_ns", timeNs(ladderRounds, n, func() {
		for _, rec := range s.rec {
			want = uint64(rec)
			ref, _ := ht.Lookup(hashes[rec], eq)
			sink += ref
		}
	}))
	l.add("hashtable.replace_ns", timeNs(ladderRounds, n, func() {
		for _, rec := range s.rec {
			want = uint64(rec)
			old, _ := ht.Replace(hashes[rec], eq, uint64(rec))
			sink += old
		}
	}))
	l.add("hashtable.overflow_buckets", float64(ht.OverflowBuckets()))

	log := logstore.NewLog(logstore.DefaultConfig())
	refs := make([]logstore.Ref, len(d.keys))
	rolls, userBytes := 0, 0
	appendRec := func(rec int32, version uint64) {
		e := logstore.Entry{Type: logstore.EntryObject, Table: benchTable, KeyHash: hashes[rec],
			Key: d.keys[rec], ValueLen: recordSize, Value: d.vals[rec], Version: version}
		if log.NeedsRoll(e.StorageSize()) {
			log.Roll()
			rolls++
		}
		ref, err := log.Append(e)
		if err != nil {
			panic(fmt.Sprintf("logstore rung: append: %v", err)) // 10 GiB log, 1 KiB entries: a bug
		}
		refs[rec] = ref
		userBytes += recordSize
	}
	for rec := range d.keys {
		appendRec(int32(rec), 1)
	}
	l.add("logstore.get_ns", timeNs(ladderRounds, n, func() {
		for _, rec := range s.rec {
			e, err := log.Get(refs[rec])
			if err == nil {
				sink += e.Version
			}
		}
	}))
	// One overwrite pass: append and mark-dead are timed in separate loops
	// over the same keys so each gets its own number.
	old := make([]logstore.Ref, n)
	t0 := time.Now()
	for i, rec := range s.rec {
		old[i] = refs[rec]
		appendRec(rec, uint64(i)+2)
	}
	l.add("logstore.append_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	t0 = time.Now()
	for _, ref := range old {
		if err := log.MarkDead(ref); err != nil {
			panic(fmt.Sprintf("logstore rung: mark dead: %v", err)) // refs come from Append: a bug
		}
	}
	l.add("logstore.markdead_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	l.add("logstore.rolls", float64(rolls))
	l.add("logstore.bytes_per_user_byte", float64(log.AccountedBytes())/float64(userBytes))
}

// simulator measures the engine, the fabric, the simulated RPC layer and
// the latency histogram: what every simulated op pays per event.
func (l *ladder) simulator() {
	events := l.count(200_000)
	l.add("sim.event_ns", timeNs(ladderRounds, events, func() {
		e := sim.New(1)
		remaining := events
		var tick func()
		tick = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			e.Schedule(sim.Duration(1+(remaining%16)*100), tick)
		}
		for i := 0; i < 64; i++ { // 64 concurrent chains, the RPC fabric's shape
			e.Schedule(sim.Duration(i), tick)
		}
		e.Run()
	}))

	handoffs := l.count(50_000)
	l.add("sim.proc_handoff_ns", timeNs(ladderRounds, handoffs, func() {
		e := sim.New(1)
		q1, q2 := sim.NewQueue[int](e), sim.NewQueue[int](e)
		e.Go("a", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				q1.Push(i)
				_ = q2.Pop(p)
			}
		})
		e.Go("b", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				_ = q1.Pop(p)
				q2.Push(i)
			}
		})
		e.Run()
		e.Shutdown()
	}))

	sends := l.count(100_000)
	ping := &wire.PingReq{Seq: 1}
	l.add("simnet.send_ns", timeNs(ladderRounds, sends, func() {
		e := sim.New(1)
		net := simnet.New(e, simnet.DefaultConfig())
		left := sends
		net.Attach(1, func(simnet.Message) {})
		net.Attach(2, func(m simnet.Message) {
			if left--; left > 0 {
				net.Send(simnet.Message{From: 1, To: 2, Size: ping.WireSize(), Payload: ping})
			}
		})
		net.Send(simnet.Message{From: 1, To: 2, Size: ping.WireSize(), Payload: ping})
		e.Run()
	}))

	calls := l.count(30_000)
	l.add("rpc.call_ns", timeNs(ladderRounds, calls, func() {
		e := sim.New(1)
		net := simnet.New(e, simnet.DefaultConfig())
		cl, srv := rpc.NewEndpoint(e, net, 1), rpc.NewEndpoint(e, net, 2)
		e.Go("server", func(p *sim.Proc) {
			for {
				req := srv.Inbound.Pop(p)
				srv.Reply(req, &wire.PingResp{})
			}
		})
		e.Go("client", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				cl.Call(p, 2, ping)
			}
			e.Stop()
		})
		e.Run()
		e.Shutdown()
	}))

	samples := l.count(1_000_000)
	h := metrics.NewHistogram()
	l.add("metrics.hist_record_ns", timeNs(ladderRounds, samples, func() {
		for i := int64(0); i < int64(samples); i++ {
			h.Record(5_000 + i%40_000)
		}
	}))
}

// facade measures host nanoseconds per simulated op through the public
// ramcloud.NewSimulation API: one client against three servers, the
// whole stack under a single simulated op with nothing else running.
func (l *ladder) facade(d *dataset) {
	ops := l.count(20_000)
	recs := min(1_000, len(d.keys))
	run := func(body func(c *ramcloud.Client, table ramcloud.Table)) float64 {
		return timeNs(ladderRounds, ops, func() {
			s := ramcloud.NewSimulation(ramcloud.Options{Servers: nServers, Seed: 1})
			table := s.CreateTable("bench")
			s.BulkLoad(table, recs, recordSize)
			s.Spawn("bench", func(c *ramcloud.Client) { body(c, table) })
			s.Run()
		})
	}
	l.add("core.read_op_ns", run(func(c *ramcloud.Client, table ramcloud.Table) {
		for i := 0; i < ops; i++ {
			if _, err := c.ReadLen(table, d.keys[i%recs]); err != nil {
				panic(fmt.Sprintf("facade rung: read: %v", err)) // loaded key on a healthy cluster: a bug
			}
		}
	}))
	l.add("core.write_op_ns", run(func(c *ramcloud.Client, table ramcloud.Table) {
		for i := 0; i < ops; i++ {
			if err := c.WriteLen(table, d.keys[i%recs], recordSize); err != nil {
				panic(fmt.Sprintf("facade rung: write: %v", err))
			}
		}
	}))
	l.add("core.multiread_op_ns", run(func(c *ramcloud.Client, table ramcloud.Table) {
		keys := make([][]byte, 16)
		for done := 0; done < ops; done += len(keys) {
			for j := range keys {
				keys[j] = d.keys[(done+j*61)%recs]
			}
			for _, r := range c.MultiRead(table, keys...) {
				if r.Err != nil {
					panic(fmt.Sprintf("facade rung: multiread: %v", r.Err))
				}
			}
		}
	}))
}
