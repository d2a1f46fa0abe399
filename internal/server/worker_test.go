package server

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// hop is the fabric delay of workerRig: with unbounded bandwidth every
// message takes exactly this long, so a reply lands hop after it is sent.
const hop = sim.Nanosecond

// workerRig is one started server at RF 0 holding keys 0..3 of table 1,
// on a fabric with a fixed delay, and two bare fabric nodes that send it
// requests and record the replies they get.
type workerRig struct {
	eng     *sim.Engine
	net     *simnet.Network
	s       *Server
	replies []reply
}

// reply is one response as a bare node received it.
type reply struct {
	id uint64
	at sim.Time
}

const (
	clientNode simnet.NodeID = 100 // a client connection: one worker
	masterNode simnet.NodeID = 200 // a master replicating to the server
)

func newWorkerRig(t *testing.T, cfg Config) *workerRig {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.Config{PropagationDelay: hop, Bandwidth: math.Inf(1)})
	node := machine.NewNode(eng, 1, machine.Grid5000Nancy())
	s := New(eng, node, net, simdisk.New(eng, simdisk.DefaultConfig()), simnet.NodeID(-1), cfg)
	s.AssignTablet(wire.Tablet{Table: 1, StartHash: 0, EndHash: ^uint64(0)})
	load(t, s, 4, 100)
	r := &workerRig{eng: eng, net: net, s: s}
	for _, id := range []simnet.NodeID{clientNode, masterNode} {
		net.Attach(id, func(m simnet.Message) { r.replies = append(r.replies, reply{m.RPCID, eng.Now()}) })
	}
	s.Start()
	return r
}

// send has node from send msg to the server at time at, as call id.
func (r *workerRig) send(at sim.Time, from simnet.NodeID, id uint64, msg wire.Message) {
	r.eng.ScheduleAt(at, func() {
		r.net.Send(simnet.Message{From: from, To: r.s.Addr(), Size: msg.WireSize(), RPCID: id, Payload: msg})
	})
}

// busyNS is the busy core time the node has accounted in its first second.
func (r *workerRig) busyNS() int64 {
	return int64(math.Round(r.s.node.UtilSecond(0) * float64(r.s.node.Spec.Cores) * float64(sim.Second)))
}

// job is one request as the reference worker serves it: handed over by
// the dispatch thread at handed, it takes svc of worker CPU.
type job struct {
	id     uint64
	handed sim.Time
	svc    sim.Duration
}

// span is one busy-time change the reference worker makes at time at:
// busy over [from, to) added, or taken back when sign is -1.
type span struct {
	at, from, to sim.Time
	sign         int64
}

// serveFIFO is the reference worker: a loop that spins for spin from its
// top, takes the next request at the later of its hand-off and the end of
// the one before, takes back the spin it did not wait, and burns the
// request's service time. It returns when each reply is sent and every
// busy-time change the loop makes, from its first top at start.
func serveFIFO(start sim.Time, spin sim.Duration, jobs []job) (map[uint64]sim.Time, []span) {
	ends := map[uint64]sim.Time{}
	var spans []span
	t0 := start
	for _, j := range jobs {
		spans = append(spans, span{t0, t0, t0.Add(spin), 1})
		b := max(j.handed, t0)
		if b.Sub(t0) < spin {
			spans = append(spans, span{b, b, t0.Add(spin), -1})
		}
		if j.svc > 0 {
			spans = append(spans, span{b, b, b.Add(j.svc), 1})
		}
		t0 = b.Add(j.svc)
		ends[j.id] = t0
	}
	return ends, append(spans, span{t0, t0, t0.Add(spin), 1})
}

// TestWorkerTiming pins a client worker and the backup service thread
// against serveFIFO. One client connection sends reads, a write, a
// multi-read with no item this master owns and a late read; a master opens
// a replica, appends two objects to it, pings and closes it. Each request
// must be served in hand-off order, its reply must leave when its service
// time ends (a multi-read of nothing, a ping and a close take none), and
// the node's busy time must change exactly when, and by what, the
// reference's spins, spin corrections and service spans change it.
func TestWorkerTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CleanerThreshold = 0
	c := cfg.Costs
	r := newWorkerRig(t, cfg)
	defer r.eng.Shutdown()

	const at = sim.Time(sim.Millisecond)
	objs := []wire.Object{
		{Table: 1, KeyHash: 1, Key: []byte("a"), ValueLen: 100, Version: 1},
		{Table: 1, KeyHash: 2, Key: []byte("b"), ValueLen: 2000, Version: 2},
	}
	reqs := []struct {
		at   sim.Time
		from simnet.NodeID
		msg  wire.Message
	}{
		{at, clientNode, &wire.ReadReq{Table: 1, Key: ycsbKey(0)}},
		{at, clientNode, &wire.WriteReq{Table: 1, Key: ycsbKey(1), ValueLen: 1024}},
		{at, clientNode, &wire.ReadReq{Table: 1, Key: ycsbKey(2)}},
		{at, clientNode, &wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 9, Key: ycsbKey(0)}}}},
		{at, clientNode, &wire.ReadReq{Table: 1, Key: ycsbKey(3)}},
		{at.Add(2 * sim.Microsecond), masterNode, &wire.OpenSegmentReq{Master: 7, Segment: 1}},
		{at.Add(2 * sim.Microsecond), masterNode, &wire.ReplicateReq{Master: 7, Segment: 1, Objects: objs}},
		{at.Add(2 * sim.Microsecond), masterNode, &wire.PingReq{Seq: 1}},
		{at.Add(2 * sim.Microsecond), masterNode, &wire.CloseSegmentReq{Master: 7, Segment: 1}},
		{at.Add(sim.Millisecond), clientNode, &wire.ReadReq{Table: 1, Key: ycsbKey(1)}},
	}
	// What the append costs: the bytes it copies, as a fresh backup counts them.
	b := store.NewBackups(cfg.Log.SegmentBytes)
	b.Open(reqs[5].msg.(*wire.OpenSegmentReq))
	_, appended := b.Replicate(reqs[6].msg.(*wire.ReplicateReq))
	svc := []sim.Duration{
		c.Read, c.WriteBase + c.PerKByte, c.Read, 0, c.Read,
		c.SegmentOpen, 2*c.ReplicaAppend + sim.Scale(c.PerKByte, float64(appended)/1024), 0, 0,
		c.Read,
	}

	// The dispatch thread hands each request over one Costs.Dispatch after
	// the later of its arrival and the hand-off before it.
	var client, backup []job
	var handed sim.Time
	for i, q := range reqs {
		r.send(q.at, q.from, uint64(i+1), q.msg)
		handed = max(q.at.Add(hop), handed).Add(c.Dispatch)
		j := job{uint64(i + 1), handed, svc[i]}
		if q.from == clientNode {
			client = append(client, j)
		} else {
			backup = append(backup, j)
		}
	}
	// The client's worker and the backup service start at 0, like the two
	// idle workers, whose only change is their first spin.
	clientEnds, clientSpans := serveFIFO(0, c.SpinTimeout, client)
	backupEnds, backupSpans := serveFIFO(0, c.SpinTimeout, backup)
	spans := append(clientSpans, backupSpans...)
	for range cfg.Workers - 1 {
		spans = append(spans, span{0, 0, sim.Time(c.SpinTimeout), 1})
	}
	var want []reply
	for id, end := range clientEnds {
		want = append(want, reply{id, end.Add(hop)})
	}
	for id, end := range backupEnds {
		want = append(want, reply{id, end.Add(hop)})
	}
	// A server's replies leave in the order it sends them, so those landing
	// together are in hand-off order.
	slices.SortFunc(want, func(a, b reply) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id)) })

	// Step through every instant at which the reference changes the busy
	// time or a reply lands, and compare.
	var instants []sim.Time
	for _, s := range spans {
		instants = append(instants, s.at)
	}
	for _, w := range want {
		instants = append(instants, w.at)
	}
	slices.Sort(instants)
	for _, x := range slices.Compact(instants) {
		r.eng.RunUntil(x)
		var busy int64
		for _, s := range spans {
			if s.at <= x {
				busy += s.sign * int64(s.to-s.from)
			}
		}
		if got := r.busyNS(); got != busy {
			t.Fatalf("at %v: %d ns of busy time accounted, want %d", x, got, busy)
		}
		n := 0
		for n < len(want) && want[n].at <= x {
			n++
		}
		if !slices.Equal(r.replies, want[:n]) {
			t.Fatalf("at %v: replies %v, want %v", x, r.replies, want[:n])
		}
	}
	if len(r.replies) != len(reqs) {
		t.Fatalf("%d replies, want %d", len(r.replies), len(reqs))
	}
	if got := r.s.Stats().ReadsOK.Value(); got != 4 {
		t.Errorf("%d reads served, want 4", got)
	}
	if got := r.s.Stats().ReplicaAppends.Value(); got != 2 {
		t.Errorf("%d replica appends, want 2", got)
	}

	// A request with no service time is answered inside the event that
	// takes it: nothing is scheduled and the worker stays idle.
	w := &r.s.backupSvc
	if !w.idle {
		t.Fatal("the backup service is not idle after the run")
	}
	before := len(r.replies)
	for _, msg := range []wire.Message{
		&wire.PingReq{Seq: 2},
		&wire.CloseSegmentReq{Master: 7, Segment: 9},
		&wire.ReplicateReq{Master: 7, Segment: 9, Objects: objs},
		&wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 9, Key: ycsbKey(0)}}},
	} {
		r.eng.ScheduleAt(r.eng.Now().Add(sim.Millisecond), func() {
			if o := w.start(rpc.Request{From: masterNode, Msg: msg}); o != answered || w.pending || !w.idle {
				t.Errorf("%T: outcome %v, tail pending %v, idle %v; want it answered at once", msg, o, w.pending, w.idle)
			}
		})
		r.eng.RunUntil(r.eng.Now().Add(2 * sim.Millisecond))
	}
	if got := len(r.replies) - before; got != 4 {
		t.Errorf("%d of 4 requests with no service time answered", got)
	}
}

// TestKillStopsCallbackWorkers kills a server while the service time of
// a read, or of a write under the log head, is running out and three more
// of the same are queued behind it on the same worker. The request in
// hand finishes into the downed NIC (a write, finding the server dead
// under the log head, as StatusError), no queued request is served, and
// every proc the server started exits.
func TestKillStopsCallbackWorkers(t *testing.T) {
	for _, c := range []struct {
		name   string
		msg    func(i int) wire.Message
		inHand func(w *worker) bool
		served func(s *Server) int64
		want   int64
	}{
		{"read", func(i int) wire.Message { return &wire.ReadReq{Table: 1, Key: ycsbKey(i)} },
			func(w *worker) bool { return w.pending }, func(s *Server) int64 { return s.Stats().ReadsOK.Value() }, 1},
		{"write", func(i int) wire.Message { return &wire.WriteReq{Table: 1, Key: ycsbKey(i), ValueLen: 100} },
			func(w *worker) bool { return w.wr.stage == writeCharged }, func(s *Server) int64 { return s.Stats().WritesOK.Value() }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CleanerThreshold = 0 // no cleaner proc outliving the run
			cfg.Costs.Read = 20 * sim.Microsecond
			cfg.Costs.WriteBase = 20 * sim.Microsecond
			cfg.Costs.PerKByte = 0
			r := newWorkerRig(t, cfg)
			defer r.eng.Shutdown()
			r.eng.RunUntil(0) // the procs' first pass
			procs := r.eng.LiveProcs()
			if want := cfg.Workers + 2; procs != want {
				t.Fatalf("%d procs running, want %d: the workers, the backup service and the flusher", procs, want)
			}
			const at = sim.Time(sim.Millisecond)
			for i := 0; i < 4; i++ {
				r.send(at, clientNode, uint64(i+1), c.msg(i))
			}
			// The first request is handed over at at+hop+Dispatch and the
			// last three by 4 Dispatch; kill half-way through the first
			// one's 20 µs service time.
			w := &r.s.workers[connWorker(clientNode, cfg.Workers)]
			killAt := at.Add(hop + cfg.Costs.Dispatch + 10*sim.Microsecond)
			queued := -1
			r.eng.ScheduleAt(killAt, func() {
				if !c.inHand(w) {
					t.Errorf("no %s's service time running at the kill", c.name)
				}
				queued = w.q.Len()
				r.s.Kill()
			})
			r.eng.RunUntil(sim.Time(sim.Second))
			if queued != 3 {
				t.Fatalf("%d requests queued at the kill, want 3", queued)
			}
			if len(r.replies) != 0 {
				t.Errorf("a killed server's replies arrived: %v", r.replies)
			}
			if got := c.served(r.s); got != c.want {
				t.Errorf("%d served, want %d", got, c.want)
			}
			if got := r.net.Dropped(); got != 1 {
				t.Errorf("%d messages dropped, want the one reply", got)
			}
			if got := r.eng.LiveProcs(); got != 0 {
				t.Errorf("%d of the killed server's %d procs still live", got, procs)
			}
		})
	}
}

// BenchmarkServerRead measures one read of a present key end to end on a
// one-server engine: the client's call, the dispatch thread's hand-off,
// the worker's service and the reply.
func BenchmarkServerRead(b *testing.B) {
	rig := newRig(b, 1, DefaultConfig())
	defer rig.eng.Shutdown()
	m := rig.servers[0]
	load(b, m, 64, 100)
	n := b.N
	rig.eng.Go("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			rig.client.Call(p, m.Addr(), &wire.ReadReq{Table: 1, Key: ycsbKey(i % 64)})
		}
		rig.eng.Stop()
	})
	rig.eng.RunUntil(0) // the servers' procs start
	b.ReportAllocs()
	b.ResetTimer()
	rig.eng.Run()
	b.StopTimer()
	if got := m.Stats().ReadsOK.Value(); got != int64(n) {
		b.Fatalf("%d of %d reads served", got, n)
	}
}

// BenchmarkServerWrite times one write, or one 32-item write batch, from
// one client through dispatch, worker, the log head and, at RF 3, the
// fan-out to three backups and their acks.
func BenchmarkServerWrite(b *testing.B) {
	for _, c := range []struct {
		name      string
		rf, batch int
	}{{"rf0", 0, 1}, {"rf3", 3, 1}, {"multi32-rf3", 3, 32}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.ReplicationFactor = c.rf
			rig := newRig(b, 5, cfg)
			defer rig.eng.Shutdown()
			m := rig.servers[0]
			batch := &wire.MultiWriteReq{Items: make([]wire.MultiWriteItem, c.batch)}
			for i := range batch.Items {
				batch.Items[i] = wire.MultiWriteItem{Table: 1, Key: ycsbKey(i), ValueLen: 100}
			}
			n := b.N
			rig.eng.Go("client", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if c.batch > 1 {
						rig.client.Call(p, m.Addr(), batch)
					} else {
						rig.client.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: ycsbKey(i % 64), ValueLen: 100})
					}
				}
				rig.eng.Stop()
			})
			rig.eng.RunUntil(0) // the servers' procs start
			b.ReportAllocs()
			b.ResetTimer()
			rig.eng.Run()
			b.StopTimer()
			if got := m.Stats().WritesOK.Value(); got != int64(n*c.batch) {
				b.Fatalf("%d of %d items written", got, n*c.batch)
			}
		})
	}
}
