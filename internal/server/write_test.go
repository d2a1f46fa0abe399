package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// This file holds the master's append-and-replicate path, writeOp, to the
// proc code it replaced. The reference below is that code: a worker that
// is a proc throughout and serves writes, deletes and write batches with
// refWrite and refServeMultiWrite, a replay proc that replays each object
// with refReplayObject and refReplicateReplaySerial, a take served with
// refServeTakeTablet, and the proc roll, refRollLocked, under all of them.

// refWrite is the proc write: admitted, appended under the log head,
// replicated to its segment's backups and answered.
func refWrite(s *Server, p *sim.Proc, req rpc.Request, o wire.Object) {
	o.KeyHash = hashtable.HashKey(o.Table, o.Key)
	status := s.admit(o.Table, o.KeyHash)
	var seg uint64
	if status == wire.StatusOK {
		seg, status = refAppendOne(s, p, &o)
	}
	if status == wire.StatusOK {
		refReplicate(s, p, seg, []wire.Object{o})
		if !o.Tombstone {
			s.stats.WritesOK.Inc()
		}
	}
	if o.Tombstone {
		s.ep.Reply(req, &wire.DeleteResp{Status: status, Version: o.Version})
	} else {
		s.ep.Reply(req, &wire.WriteResp{Status: status, Version: o.Version})
	}
}

// refLockLog takes the log head and burns cost under it, inflated by the
// contention tax; false, the head released again, when the server died
// meanwhile.
func refLockLog(s *Server, p *sim.Proc, cost sim.Duration) bool {
	waiters := s.logMu.Waiters()
	s.lockWithSpin(p, s.logMu)
	s.busy(p, s.logCost(cost, waiters))
	if s.dead {
		s.logMu.Unlock()
		return false
	}
	return true
}

// refAppendOne appends one object under the log head, paying its service
// time there, and returns the segment it landed in.
func refAppendOne(s *Server, p *sim.Proc, o *wire.Object) (uint64, wire.Status) {
	if !refLockLog(s, p, s.appendCost(o.ValueLen)) {
		return 0, wire.StatusError
	}
	seg, status := s.st.Apply(o, func() { refRollLocked(s, p) })
	s.logMu.Unlock()
	return seg, status
}

// refRollLocked is the proc roll: the head sealed and its replicas closed,
// the new head's replicas opened and every open waited for, and the will
// sent.
func refRollLocked(s *Server, p *sim.Proc) {
	sealed, head := s.st.Log.Roll()
	rf := s.cfg.ReplicationFactor
	if rf <= 0 {
		return
	}
	if sealed != nil {
		closeReq := &wire.CloseSegmentReq{Master: s.id, Segment: sealed.ID(), SegmentBytes: uint32(sealed.Accounted())}
		for _, b := range s.reps.Set(sealed.ID()) {
			s.ep.AsyncCall(simnet.NodeID(b), closeReq)
		}
		s.stats.SegmentsSealed.Inc()
	}
	backups, _ := s.reps.Open(head.ID(), rf, s.eng.Rand())
	refSend(s, p, head.ID(), backups, &wire.OpenSegmentReq{Master: s.id, Segment: head.ID()}, s.cfg.Costs.SendOverhead, false)
	s.ep.AsyncCall(s.coordinator, &wire.SetWillReq{Master: s.id, Partitions: s.reps.Will(s.st.Tablets, s.st.Log.LiveBytes(), s.cfg.PartitionBytes)})
}

// refReplicate is the proc replication of objs, appended to segment: one
// request for the whole fan-out.
func refReplicate(s *Server, p *sim.Proc, segment uint64, objs []wire.Object) {
	if s.cfg.ReplicationFactor <= 0 || len(objs) == 0 {
		return
	}
	msg, post := s.replication(segment, objs)
	refSend(s, p, segment, s.reps.Set(segment), msg, post, s.cfg.AsyncReplication)
}

// refSend is the proc fan-out: every send posted, then, unless async,
// every ack waited for in turn and each backup that missed its deadline
// replaced.
func refSend(s *Server, p *sim.Proc, segment uint64, backups []int32, msg wire.Message, post sim.Duration, async bool) {
	var buf [inlineAcks]pendingAck
	acks := buf[:0]
	for _, b := range backups {
		s.busy(p, post)
		acks = append(acks, pendingAck{backup: b, call: s.ep.StartCall(simnet.NodeID(b), msg)})
	}
	if async {
		return
	}
	for i := range acks {
		a := &acks[i]
		_, ok := a.call.WaitTimeout(p, s.cfg.ReplicationTimeout)
		a.call.Release()
		if !ok {
			s.handleBackupFailure(p, a.backup, segment)
		}
	}
}

// refServeMultiWrite is the proc write batch: every owned item appended
// under one acquisition of the log head, the run a roll closes replicated
// before the roll, and the last run once the head is released.
func refServeMultiWrite(s *Server, p *sim.Proc, req rpc.Request, m *wire.MultiWriteReq) {
	items := make([]wire.MultiWriteResult, len(m.Items))
	hashes := make([]uint64, len(m.Items))
	var owned int
	var cost sim.Duration
	for i := range m.Items {
		it := &m.Items[i]
		hashes[i] = hashtable.HashKey(it.Table, it.Key)
		if items[i].Status = s.admit(it.Table, hashes[i]); items[i].Status == wire.StatusOK {
			owned++
			cost += s.appendCost(it.ValueLen)
		}
	}
	if owned == 0 {
		s.busy(p, sim.Scale(s.cfg.Costs.Read, s.interference()))
		s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
		return
	}
	if !refLockLog(s, p, cost) {
		for i := range items {
			if items[i].Status == wire.StatusOK {
				items[i].Status = wire.StatusError
			}
		}
		s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusError, Items: items})
		return
	}
	var objs []wire.Object
	if s.cfg.ReplicationFactor > 0 {
		objs = make([]wire.Object, 0, owned)
	}
	var seg uint64
	start := 0
	roll := func() {
		refReplicate(s, p, seg, objs[start:])
		start = len(objs)
		refRollLocked(s, p)
	}
	for i := range m.Items {
		if items[i].Status != wire.StatusOK {
			continue
		}
		it := &m.Items[i]
		o := wire.Object{Table: it.Table, KeyHash: hashes[i], Key: it.Key, ValueLen: it.ValueLen, Value: it.Value}
		landed, status := s.st.Apply(&o, roll)
		items[i] = wire.MultiWriteResult{Status: status, Version: o.Version}
		if status != wire.StatusOK {
			continue
		}
		s.stats.WritesOK.Inc()
		if s.cfg.ReplicationFactor > 0 {
			seg, objs = landed, append(objs, o)
		}
	}
	s.logMu.Unlock()
	refReplicate(s, p, seg, objs[start:])
	s.ep.Reply(req, &wire.MultiWriteResp{Status: wire.StatusOK, Items: items})
}

// refServeTakeTablet is the proc take: each object replayed, and each run
// of one segment's objects sent through the serial chain at migrateBatch
// objects, once the next object has landed in another segment, and at the
// end.
func refServeTakeTablet(s *Server, p *sim.Proc, req rpc.Request, m *wire.TakeTabletReq) {
	if s.dead {
		return
	}
	var batch []wire.Object
	var batchSeg uint64
	flush := func() {
		if len(batch) > 0 {
			refReplicateReplaySerial(s, p, batchSeg, batch)
			batch = nil
		}
	}
	for i := range m.Objects {
		obj := &m.Objects[i]
		seg, replayed := refReplayObject(s, p, obj)
		if !replayed {
			continue
		}
		if seg != batchSeg {
			flush()
			batchSeg = seg
		}
		batch = append(batch, *obj)
		if len(batch) >= migrateBatch {
			flush()
		}
		if s.dead {
			return
		}
	}
	flush()
	s.ep.Reply(req, &wire.TakeTabletResp{Status: wire.StatusOK})
}

// refWorker is a client worker that is a proc throughout, serving only
// writes, deletes and write batches: it spins from the top of its loop, takes the next
// request, takes back the spin it did not wait and serves the request.
func refWorker(s *Server, q *sim.Queue[rpc.Request], p *sim.Proc) {
	spin := s.cfg.Costs.SpinTimeout
	for !s.dead {
		t0 := p.Now()
		if spin > 0 {
			s.node.AddBusy(t0, t0.Add(spin))
		}
		req := q.Pop(p)
		if s.dead {
			return
		}
		if now := p.Now(); now.Sub(t0) < spin {
			s.node.SubBusy(now, t0.Add(spin))
		}
		switch m := req.Msg.(type) {
		case *wire.WriteReq:
			refWrite(s, p, req, wire.Object{Table: m.Table, Key: m.Key, ValueLen: m.ValueLen, Value: m.Value})
		case *wire.DeleteReq:
			refWrite(s, p, req, wire.Object{Table: m.Table, Key: m.Key, Tombstone: true})
		case *wire.MultiWriteReq:
			refServeMultiWrite(s, p, req, m)
		default:
			panic(fmt.Sprintf("reference worker: %T", req.Msg))
		}
	}
}

// startRef starts s as Start does, in the same order, but with refWorker
// in place of each client worker.
func startRef(s *Server) {
	s.startDispatch()
	for i := range s.workers {
		q := &s.workers[i].q
		s.workers[i].proc = s.eng.Go(fmt.Sprintf("srv%d-worker%d", s.id, i), func(p *sim.Proc) { refWorker(s, q, p) })
	}
	s.backupSvc.proc = s.eng.Go(fmt.Sprintf("srv%d-backupsvc", s.id), s.backupSvc.loop)
	s.eng.Go(fmt.Sprintf("srv%d-flush", s.id), s.flushLoop)
}

// refReplayPartition is the proc replay: each segment fetched, each of its
// objects replayed and re-replicated through the serial chain.
func refReplayPartition(s *Server, p *sim.Proc, m *wire.RecoverReq) {
	s.recoveryActive++
	if s.recoveryActive == 1 && !s.dead {
		s.node.PinCores(2)
	}
	defer func() {
		s.recoveryActive--
		if s.recoveryActive == 0 && !s.dead {
			s.node.PinCores(-2)
		}
	}()
	ok := true
	for _, loc := range m.Segments {
		resp, got := s.ep.CallTimeout(p, simnet.NodeID(loc.Backup), &wire.GetRecoveryDataReq{
			Master: m.Crashed, Segment: loc.Segment, FirstHash: m.FirstHash, LastHash: m.LastHash,
		}, recoveryFetchTimeout)
		data, _ := resp.(*wire.GetRecoveryDataResp)
		if !got || data.Status != wire.StatusOK {
			ok = false
			continue
		}
		for i := range data.Objects {
			obj := &data.Objects[i]
			seg, replayed := refReplayObject(s, p, obj)
			if !replayed {
				continue
			}
			refReplicateReplaySerial(s, p, seg, []wire.Object{*obj})
			if s.dead {
				return
			}
		}
	}
	s.ep.CallTimeout(p, s.coordinator, &wire.RecoveryDoneReq{Crashed: m.Crashed, FirstHash: m.FirstHash, Ok: ok}, 5*sim.Second)
}

// refReplayObject re-inserts one recovered object through the proc append.
func refReplayObject(s *Server, p *sim.Proc, obj *wire.Object) (uint64, bool) {
	s.busy(p, s.cfg.Costs.ReplayObject)
	if cur := s.st.Read(obj.Table, obj.Key, obj.KeyHash); cur.Status == wire.StatusOK && cur.Version >= obj.Version {
		return 0, false
	}
	seg, status := refAppendOne(s, p, obj)
	if status != wire.StatusOK {
		return 0, false
	}
	s.stats.ObjectsReplay.Inc()
	return seg, true
}

// refReplicateReplaySerial is the proc chain: post, call, wait, next
// backup.
func refReplicateReplaySerial(s *Server, p *sim.Proc, segment uint64, objs []wire.Object) {
	if s.cfg.ReplicationFactor <= 0 || len(objs) == 0 {
		return
	}
	msg, post := s.replication(segment, objs)
	for _, b := range s.reps.Set(segment) {
		s.busy(p, post)
		resp, ok := s.ep.CallTimeout(p, simnet.NodeID(b), msg, s.cfg.ReplicationTimeout)
		if !ok || resp == nil {
			s.handleBackupFailure(p, b, segment)
		}
	}
}

// timingRig is n servers at one configuration on the default fabric, with
// a coordinator node that answers wills and recovery reports at once, and
// bare client nodes that send requests at fixed instants and record every
// reply. Server 0 is the one under test: started as Start does, or, for
// the reference, as startRef does.
type timingRig struct {
	eng     *sim.Engine
	net     *simnet.Network
	servers []*Server
	clients map[simnet.NodeID]bool
	replies []string
}

func newTimingRig(t *testing.T, n int, cfg Config, ref bool) *timingRig {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	r := &timingRig{eng: eng, net: net, clients: map[simnet.NodeID]bool{}}
	coord := simnet.NodeID(-1)
	net.Attach(coord, func(m simnet.Message) {
		var resp wire.Message
		switch m.Payload.(type) {
		case *wire.SetWillReq:
			resp = &wire.SetWillResp{Status: wire.StatusOK}
		case *wire.RecoveryDoneReq:
			resp = &wire.RecoveryDoneResp{Status: wire.StatusOK}
		default:
			return
		}
		net.Send(simnet.Message{From: coord, To: m.From, Size: resp.WireSize(), RPCID: m.RPCID, Resp: true, Payload: resp})
	})
	var addrs []simnet.NodeID
	reg := map[simnet.NodeID]*Server{}
	for i := 0; i < n; i++ {
		node := machine.NewNode(eng, i+1, machine.Grid5000Nancy())
		s := New(eng, node, net, simdisk.New(eng, simdisk.DefaultConfig()), coord, cfg)
		r.servers = append(r.servers, s)
		addrs = append(addrs, s.Addr())
		reg[s.Addr()] = s
	}
	for i, s := range r.servers {
		s.SetPeers(addrs)
		s.SetRegistry(func(id simnet.NodeID) *Server { return reg[id] })
		s.AssignTablet(wire.Tablet{Table: 1, StartHash: 0, EndHash: ^uint64(0)})
		if ref && i == 0 {
			startRef(s)
		} else {
			s.Start()
		}
	}
	return r
}

// client attaches, once, a bare client node that records the replies it
// gets.
func (r *timingRig) client(id simnet.NodeID) {
	if r.clients[id] {
		return
	}
	r.clients[id] = true
	r.net.Attach(id, func(m simnet.Message) {
		r.replies = append(r.replies, fmt.Sprintf("%d#%d at %v: %T%+v", id, m.RPCID, r.eng.Now(), m.Payload, m.Payload))
	})
}

// send has client from send msg, as call id, to server 0 at time at.
func (r *timingRig) send(at sim.Time, from simnet.NodeID, id uint64, msg wire.Message) {
	r.eng.ScheduleAt(at, func() {
		r.net.Send(simnet.Message{From: from, To: r.servers[0].Addr(), Size: msg.WireSize(), RPCID: id, Payload: msg})
	})
}

// busy is every server's busy time in the first two seconds.
func (r *timingRig) busy() []float64 {
	var b []float64
	for _, s := range r.servers {
		b = append(b, s.node.UtilSecond(0), s.node.UtilSecond(1))
	}
	return b
}

// timingStep is how finely compareTiming walks the runs' first horizon.
const timingStep = 100 * sim.Nanosecond

// compareTiming builds the rig twice, with the callbacks under test and
// with the reference, and walks both in steps of timingStep up to horizon:
// at every step the replies so far (each with its instant and contents),
// every node's busy time and the engines' events run and sequence numbers
// drawn must match. Both then run to the end, where the same must hold,
// and the servers' counters, procs and logs must too. It returns the rig
// under test and the procs each run resumed.
func compareTiming(t *testing.T, horizon sim.Time, build func(ref bool) *timingRig) (r *timingRig, resumes, refResumes uint64) {
	t.Helper()
	got, want := build(false), build(true)
	defer got.eng.Shutdown()
	defer want.eng.Shutdown()
	check := func(at string) bool {
		t.Helper()
		g, w := got.eng.Counts(), want.eng.Counts()
		switch {
		case !slices.Equal(got.replies, want.replies):
			t.Errorf("%s: replies\n%v\nreference\n%v", at, got.replies, want.replies)
		case !slices.Equal(got.busy(), want.busy()):
			t.Errorf("%s: busy %v, reference %v", at, got.busy(), want.busy())
		case g.Seq != w.Seq || g.Events != w.Events:
			t.Errorf("%s: %d events run and %d sequence numbers drawn, reference %d and %d", at, g.Events, g.Seq, w.Events, w.Seq)
		default:
			return true
		}
		return false
	}
	for x := sim.Time(0); x <= horizon; x += sim.Time(timingStep) {
		got.eng.RunUntil(x)
		want.eng.RunUntil(x)
		if !check(fmt.Sprintf("at %v", x)) {
			return got, 0, 0
		}
	}
	got.eng.Run()
	want.eng.Run()
	if !check("at the end") {
		return got, 0, 0
	}
	if g, w := got.eng.Now(), want.eng.Now(); g != w {
		t.Errorf("the run ends at %v, the reference's at %v", g, w)
	}
	if g, w := got.eng.LiveProcs(), want.eng.LiveProcs(); g != w {
		t.Errorf("%d procs live at the end, the reference %d", g, w)
	}
	for i, s := range got.servers {
		ref := want.servers[i]
		if *s.Stats() != *ref.Stats() {
			t.Errorf("server %d: counters %+v, reference %+v", s.ID(), *s.Stats(), *ref.Stats())
		}
		if g, w := s.Log().Head(), ref.Log().Head(); (g == nil) != (w == nil) || g != nil && (g.ID() != w.ID() || g.Accounted() != w.Accounted()) {
			t.Errorf("server %d: its log head differs from the reference's", s.ID())
		}
		if s.Dead() != ref.Dead() || s.recoveryActive != ref.recoveryActive || s.node.PinnedCores() != ref.node.PinnedCores() {
			t.Errorf("server %d: dead %v, replaying %d, %d pinned cores; reference %v, %d, %d", s.ID(),
				s.Dead(), s.recoveryActive, s.node.PinnedCores(), ref.Dead(), ref.recoveryActive, ref.node.PinnedCores())
		}
		for seg := uint64(1); s.Log().Head() != nil && seg <= s.Log().Head().ID(); seg++ {
			if !slices.Equal(s.reps.Set(seg), ref.reps.Set(seg)) {
				t.Errorf("server %d segment %d: backups %v, reference %v", s.ID(), seg, s.reps.Set(seg), ref.reps.Set(seg))
			}
		}
	}
	return got, got.eng.Counts().Resumes, want.eng.Counts().Resumes
}

// writeCase is one run of single writes against server 0: its servers and
// configuration, and what the clients send and when, with any kill.
type writeCase struct {
	name    string
	servers int
	cfg     Config
	load    int // keys 0..load-1 bulk-loaded into server 0 first
	script  func(r *timingRig)
}

// burst has clients 100.. each send n writes of valueLen bytes to distinct
// keys from first on, one every gap, starting at at.
func burst(r *timingRig, at sim.Time, clients, n, first int, valueLen uint32, gap sim.Duration) {
	for c := 0; c < clients; c++ {
		id := simnet.NodeID(100 + c)
		r.client(id)
		for i := 0; i < n; i++ {
			r.send(at.Add(sim.Duration(i)*gap), id, uint64(i+1), &wire.WriteReq{Table: 1, Key: ycsbKey(first + c*n + i), ValueLen: valueLen})
		}
	}
}

// batches has clients 300.. each send n write batches of size items of
// valueLen bytes to distinct keys from first on, one every gap, starting
// at at; table is the items' table.
func batches(r *timingRig, at sim.Time, clients, n, size, first int, table uint64, valueLen uint32, gap sim.Duration) {
	for c := 0; c < clients; c++ {
		id := simnet.NodeID(300 + c)
		r.client(id)
		for i := 0; i < n; i++ {
			m := &wire.MultiWriteReq{Items: make([]wire.MultiWriteItem, size)}
			for j := range m.Items {
				m.Items[j] = wire.MultiWriteItem{Table: table, Key: ycsbKey(first + (c*n+i)*size + j), ValueLen: valueLen}
			}
			r.send(at.Add(sim.Duration(i)*gap), id, uint64(i+1), m)
		}
	}
}

// TestWriteTiming holds the single write and delete, and the write batch,
// to the proc write path they replace (refWrite and refServeMultiWrite on
// a worker that is a proc throughout): at RF 0, 1 and 4; with the log head
// contended; with rolls at RF > 0, two of them inside one batch; with a
// backup that misses its ack, so the master replaces it; with the late
// appends a roll refuses (ROADMAP 3(a)); with the master killed mid-write
// and mid-batch; with deletes of a present and a missing key; and with a
// batch of no owned item. Every reply must leave at the same instant with
// the same contents, every node's busy time must change alike, and both
// engines must run the same events and draw the same sequence numbers
// throughout; at the end the counters, the logs, the backup sets and the
// live procs must agree, and the callbacks must have resumed fewer procs.
func TestWriteTiming(t *testing.T) {
	const at = sim.Time(sim.Millisecond)
	small := func(rf int) Config {
		cfg := smallCfg(rf)
		cfg.CleanerThreshold = 0
		cfg.ReplicationTimeout = 2 * sim.Millisecond
		return cfg
	}
	big := func(rf int) Config {
		cfg := small(rf)
		cfg.Log.SegmentBytes = 8 << 20
		cfg.Log.TotalBytes = 64 << 20
		return cfg
	}
	for _, c := range []writeCase{
		{name: "rf0", servers: 1, cfg: big(0), load: 4, script: func(r *timingRig) {
			burst(r, at, 1, 5, 10, 100, 300*sim.Microsecond)
			r.client(200)
			r.send(at.Add(100*sim.Microsecond), 200, 1, &wire.DeleteReq{Table: 1, Key: ycsbKey(1)})
			r.send(at.Add(150*sim.Microsecond), 200, 2, &wire.DeleteReq{Table: 1, Key: ycsbKey(99)})
			r.send(at.Add(200*sim.Microsecond), 200, 3, &wire.WriteReq{Table: 2, Key: ycsbKey(0), ValueLen: 10})
		}},
		{name: "rf1", servers: 3, cfg: big(1), script: func(r *timingRig) {
			burst(r, at, 2, 6, 0, 1000, 400*sim.Microsecond)
		}},
		{name: "rf4", servers: 6, cfg: big(4), script: func(r *timingRig) {
			burst(r, at, 2, 6, 0, 1000, 400*sim.Microsecond)
		}},
		{name: "contended", servers: 3, cfg: big(2), script: func(r *timingRig) {
			burst(r, at, 6, 4, 0, 500, 0)
		}},
		{name: "rolls", servers: 4, cfg: small(2), script: func(r *timingRig) {
			burst(r, at, 1, 40, 0, 1024, 150*sim.Microsecond)
		}},
		{name: "backup timeout", servers: 4, cfg: big(2), script: func(r *timingRig) {
			burst(r, at, 1, 1, 0, 64, 0)
			r.eng.ScheduleAt(at.Add(2*sim.Millisecond), func() {
				m := r.servers[0]
				victim := m.reps.Set(m.Log().Head().ID())[1]
				m.registry(simnet.NodeID(victim)).Kill()
			})
			burst(r, at.Add(3*sim.Millisecond), 2, 3, 10, 64, 100*sim.Microsecond)
		}},
		{name: "refused late append", servers: 4, cfg: small(2), script: func(r *timingRig) {
			burst(r, at, 6, 12, 0, 900, 0)
		}},
		{name: "kill mid-write", servers: 4, cfg: big(2), script: func(r *timingRig) {
			burst(r, at, 4, 3, 0, 1000, 0)
			// The first writes are mid fan-out and the rest queued on the
			// log head or on their workers.
			r.eng.ScheduleAt(at.Add(120*sim.Microsecond), r.servers[0].Kill)
		}},
		{name: "batch rf0", servers: 1, cfg: big(0), load: 4, script: func(r *timingRig) {
			batches(r, at, 2, 4, 8, 0, 1, 100, 300*sim.Microsecond)
			burst(r, at.Add(50*sim.Microsecond), 1, 4, 100, 100, 300*sim.Microsecond)
		}},
		{name: "batch rolls", servers: 4, cfg: small(2), script: func(r *timingRig) {
			// 16 KiB segments hold about 15 items of 1 KiB: the first
			// batch rolls the head twice.
			batches(r, at, 1, 2, 40, 0, 1, 1024, 4*sim.Millisecond)
			burst(r, at.Add(200*sim.Microsecond), 1, 6, 100, 1024, 150*sim.Microsecond)
		}},
		{name: "batch backup timeout", servers: 4, cfg: big(2), script: func(r *timingRig) {
			burst(r, at, 1, 1, 0, 64, 0)
			r.eng.ScheduleAt(at.Add(2*sim.Millisecond), func() {
				m := r.servers[0]
				victim := m.reps.Set(m.Log().Head().ID())[1]
				m.registry(simnet.NodeID(victim)).Kill()
			})
			batches(r, at.Add(3*sim.Millisecond), 2, 2, 8, 10, 1, 64, 100*sim.Microsecond)
		}},
		{name: "batch of no owned item", servers: 3, cfg: big(1), script: func(r *timingRig) {
			batches(r, at, 1, 3, 8, 0, 2, 100, 100*sim.Microsecond)
			burst(r, at.Add(20*sim.Microsecond), 1, 3, 100, 100, 100*sim.Microsecond)
		}},
		{name: "kill mid-batch", servers: 4, cfg: big(2), script: func(r *timingRig) {
			batches(r, at, 4, 2, 16, 0, 1, 1000, 0)
			// The first batch is mid fan-out and the rest queued on the
			// log head or on their workers.
			r.eng.ScheduleAt(at.Add(300*sim.Microsecond), r.servers[0].Kill)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, resumes, refResumes := compareTiming(t, 20*at, func(ref bool) *timingRig {
				r := newTimingRig(t, c.servers, c.cfg, ref)
				if c.load > 0 {
					load(t, r.servers[0], c.load, 100)
				}
				c.script(r)
				return r
			})
			if t.Failed() {
				return
			}
			m := r.servers[0]
			t.Logf("%d writes, %d backup failures, %d segments sealed; %d procs resumed, the reference %d",
				m.Stats().WritesOK.Value(), m.Stats().BackupFailures.Value(), m.Stats().SegmentsSealed.Value(), resumes, refResumes)
			if m.Stats().WritesOK.Value() == 0 {
				t.Error("no write was served")
			}
			if resumes >= refResumes {
				t.Errorf("%d procs resumed, the reference %d", resumes, refResumes)
			}
		})
	}
}

// TestReplayTiming holds the recovery replay and a tablet take to the
// proc code they replace (refReplayPartition, refServeTakeTablet). A
// recovery master replays, at RF 1 and RF 4, a partition of 150 objects
// from another master's backups; a master takes, at RF 2, 300 objects of
// 100 bytes, so its runs are sent at 64 objects as well as past each roll.
// Both land in 16 KiB segments, so the head rolls, while a client writes
// to the master, and one of its head's backups is killed mid-chain, so a
// chain's ack times out and the backup is replaced. Everything
// compareTiming checks must match, and the callbacks must have resumed
// fewer procs.
func TestReplayTiming(t *testing.T) {
	const at = sim.Time(sim.Millisecond)
	for _, c := range []struct {
		name string
		rf   int
		take bool
	}{{"rf1", 1, false}, {"rf4", 4, false}, {"take rf2", 2, true}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallCfg(c.rf)
			cfg.CleanerThreshold = 0
			cfg.ReplicationTimeout = 2 * sim.Millisecond
			want := int64(150)
			if c.take {
				want = 300
			}
			r, resumes, refResumes := compareTiming(t, 40*at, func(ref bool) *timingRig {
				r := newTimingRig(t, c.rf+3, cfg, ref)
				rm := r.servers[0]
				sources := map[int32]bool{}
				if c.take {
					objs := make([]wire.Object, want)
					for i := range objs {
						key := ycsbKey(i)
						objs[i] = wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, key), Key: key, ValueLen: 100, Version: uint64(i + 1)}
					}
					m := &wire.TakeTabletReq{Table: 1, LastHash: ^uint64(0), Objects: objs}
					r.client(400)
					req := rpc.Request{From: 400, RPCID: 1, Msg: m}
					r.eng.ScheduleAt(at, func() {
						r.eng.Go("take", func(p *sim.Proc) {
							if ref {
								refServeTakeTablet(rm, p, req, m)
							} else {
								rm.serveTakeTablet(p, req, m)
							}
						})
					})
				} else {
					crashed := r.servers[c.rf+2]
					load(t, crashed, int(want), 100)
					m := &wire.RecoverReq{Crashed: crashed.ID(), LastHash: ^uint64(0)}
					sources[crashed.ID()] = true
					for id := uint64(1); id <= crashed.Log().Head().ID(); id++ {
						b := crashed.reps.Set(id)[0]
						m.Segments = append(m.Segments, wire.SegmentLoc{Segment: id, Backup: b})
						sources[b] = true
					}
					r.eng.ScheduleAt(at, func() {
						r.eng.Go("replay", func(p *sim.Proc) {
							if ref {
								refReplayPartition(rm, p, m)
							} else {
								rm.replayPartition(p, m)
							}
						})
					})
				}
				burst(r, at.Add(sim.Millisecond), 1, 10, 1000, 100, 500*sim.Microsecond)
				r.eng.ScheduleAt(at.Add(5*sim.Millisecond), func() {
					for _, b := range rm.reps.Set(rm.Log().Head().ID()) {
						if !sources[b] {
							rm.registry(simnet.NodeID(b)).Kill()
							return
						}
					}
				})
				return r
			})
			if t.Failed() {
				return
			}
			rm := r.servers[0]
			t.Logf("%d objects replayed, %d writes, %d backup failures, %d segments sealed; %d procs resumed, the reference %d",
				rm.Stats().ObjectsReplay.Value(), rm.Stats().WritesOK.Value(), rm.Stats().BackupFailures.Value(),
				rm.Stats().SegmentsSealed.Value(), resumes, refResumes)
			if rm.Stats().ObjectsReplay.Value() != want || rm.Stats().BackupFailures.Value() == 0 || rm.Stats().SegmentsSealed.Value() == 0 {
				t.Error("the replay did not replay every object, roll and replace a backup")
			}
			if c.take && !slices.ContainsFunc(r.replies, func(s string) bool { return strings.Contains(s, "TakeTabletResp") }) {
				t.Error("the take was not answered")
			}
			if resumes >= refResumes {
				t.Errorf("%d procs resumed, the reference %d", resumes, refResumes)
			}
		})
	}
}

// TestConcurrentWritesFillSealedReplicas has six clients write 900-byte
// values to one master at RF 2 with 16 KiB segments, so rolls fall among
// concurrent writes. An acknowledged write must be on every backup of its
// segment, so every sealed segment's replicas must hold all its bytes.
// Today a write replicates after it has released the log head and paid
// its posts, another worker's roll can close the segment's replicas
// first, the backups refuse the late append, and the master counts the
// refusal as an ack.
func TestConcurrentWritesFillSealedReplicas(t *testing.T) {
	t.Skip("known fault: fixing it moves the update and recovery renderings; it belongs to the golden re-baseline, ROADMAP 3(a)")
	rig := newRig(t, 4, smallCfg(2))
	m := rig.servers[0]
	const clients, writes = 6, 40
	done := 0
	for c := 0; c < clients; c++ {
		ep := rpc.NewEndpoint(rig.eng, rig.net, simnet.NodeID(500+c))
		rig.eng.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				resp := ep.Call(p, m.Addr(), &wire.WriteReq{Table: 1, Key: ycsbKey(c*writes + i), ValueLen: 900}).(*wire.WriteResp)
				if resp.Status != wire.StatusOK {
					t.Errorf("client %d write %d: %v", c, i, resp.Status)
				}
			}
			if done++; done == clients {
				rig.eng.Stop()
			}
		})
	}
	rig.eng.Run()
	rig.eng.Shutdown()
	checkSealedReplicas(t, m)
}

// checkSealedReplicas fails unless m sealed a segment and each replica of
// every sealed segment holds all of the segment's bytes.
func checkSealedReplicas(t *testing.T, m *Server) {
	t.Helper()
	sealed, short := 0, 0
	for id := uint64(1); id < m.Log().Head().ID(); id++ {
		seg, ok := m.Log().Segment(id)
		if !ok || !seg.Sealed() {
			continue
		}
		for _, b := range m.reps.Set(id) {
			sealed++
			inv := m.registry(simnet.NodeID(b)).backups.Inventory(&wire.SegmentInventoryReq{Master: m.ID()})
			i := slices.IndexFunc(inv.Segments, func(r wire.SegmentInfo) bool { return r.Segment == id })
			if i < 0 || int(inv.Segments[i].Bytes) != seg.Accounted() {
				short++
			}
		}
	}
	if sealed == 0 {
		t.Fatal("no segment was sealed")
	}
	if short > 0 {
		t.Fatalf("%d of %d sealed replicas hold less than their segment", short, sealed)
	}
}

// TestTakeFillsSealedReplicas has a master take 60 objects of 900 bytes
// at RF 2 into 16 KiB segments, so its head rolls mid-take. An object the
// take acknowledged must be on every backup of its segment, so every
// sealed segment's replicas must hold all its bytes. Today a take sends a
// segment's run only once the next object has landed in a new segment,
// after the roll has closed the run's replicas; the backups refuse the
// append, and the master counts the refusal as an ack.
func TestTakeFillsSealedReplicas(t *testing.T) {
	t.Skip("known fault: fixing it moves the faultload rendering; it belongs to the golden re-baseline, ROADMAP 3(d)")
	rig := newRig(t, 4, smallCfg(2))
	m := rig.servers[0]
	objs := make([]wire.Object, 60)
	for i := range objs {
		key := ycsbKey(i)
		objs[i] = wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, key), Key: key, ValueLen: 900, Version: uint64(i + 1)}
	}
	rig.eng.Go("source", func(p *sim.Proc) {
		resp := rig.client.Call(p, m.Addr(), &wire.TakeTabletReq{Table: 1, LastHash: ^uint64(0), Objects: objs}).(*wire.TakeTabletResp)
		if resp.Status != wire.StatusOK {
			t.Errorf("take: %v", resp.Status)
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	rig.eng.Shutdown()
	checkSealedReplicas(t, m)
}

// BenchmarkReplayObject times one object a recovery master replays at
// RF 1 and RF 4, from a partition of b.N objects bulk-loaded on another
// master: its busy time, the log head, the append, the serial chain to
// every backup with their appends and acks, and the segment fetches.
func BenchmarkReplayObject(b *testing.B) {
	for _, rf := range []int{1, 4} {
		b.Run(fmt.Sprintf("rf%d", rf), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.ReplicationFactor = 1
			rig := newRig(b, 6, cfg)
			defer rig.eng.Shutdown()
			crashed, rm := rig.servers[0], rig.servers[1]
			load(b, crashed, b.N, 100)
			m := &wire.RecoverReq{Crashed: crashed.ID(), LastHash: ^uint64(0)}
			for id := uint64(1); id <= crashed.Log().Head().ID(); id++ {
				m.Segments = append(m.Segments, wire.SegmentLoc{Segment: id, Backup: crashed.reps.Set(id)[0]})
			}
			rm.cfg.ReplicationFactor = rf
			rig.eng.Go("replay", func(p *sim.Proc) {
				rm.replayPartition(p, m)
				rig.eng.Stop()
			})
			rig.eng.RunUntil(0) // the servers' procs start
			b.ReportAllocs()
			b.ResetTimer()
			rig.eng.Run()
			b.StopTimer()
			if got := rm.Stats().ObjectsReplay.Value(); got != int64(b.N) {
				b.Fatalf("%d of %d objects replayed", got, b.N)
			}
		})
	}
}
