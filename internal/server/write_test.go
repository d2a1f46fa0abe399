package server

import (
	"fmt"
	"slices"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// This file holds the single write and the recovery replay to the proc
// code they were before they became writeOp's callbacks. The reference
// below is that code: a worker that is a proc throughout and serves writes
// and deletes with refWrite, and a replay proc that replays each object
// with refReplayObject and refReplicateReplaySerial.

// refWrite is the proc write: admitted, appended under the log head,
// replicated to its segment's backups and answered.
func refWrite(s *Server, p *sim.Proc, req rpc.Request, o wire.Object) {
	o.KeyHash = hashtable.HashKey(o.Table, o.Key)
	status := s.admit(o.Table, o.KeyHash)
	var seg uint64
	if status == wire.StatusOK {
		seg, status = s.appendOne(p, &o)
	}
	if status == wire.StatusOK {
		if s.cfg.ReplicationFactor > 0 {
			refReplicate(s, p, seg, []wire.Object{o})
		}
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

// refReplicate is the proc fan-out: every send posted, then every ack
// waited for.
func refReplicate(s *Server, p *sim.Proc, segment uint64, objs []wire.Object) {
	var buf [inlineAcks]pendingAck
	msg, post := s.replication(segment, objs)
	acks := buf[:0]
	for _, b := range s.reps.Set(segment) {
		s.busy(p, post)
		acks = append(acks, pendingAck{backup: b, call: s.ep.StartCall(simnet.NodeID(b), msg)})
	}
	if s.cfg.AsyncReplication {
		return
	}
	refAwaitAcks(s, p, acks, segment)
}

// refAwaitAcks waits for every ack in turn and replaces each backup that
// missed its deadline.
func refAwaitAcks(s *Server, p *sim.Proc, acks []pendingAck, segment uint64) {
	for i := range acks {
		a := &acks[i]
		_, ok := a.call.WaitTimeout(p, s.cfg.ReplicationTimeout)
		a.call.Release()
		if !ok {
			s.handleBackupFailure(p, a.backup, segment)
		}
	}
}

// refWorker is a client worker that is a proc throughout, serving only
// writes and deletes: it spins from the top of its loop, takes the next
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
	seg, status := s.appendOne(p, obj)
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

// TestWriteTiming holds the single write and delete to the proc write
// path they replace (refWrite on a worker that is a proc throughout): at
// RF 0, 1 and 4; with the log head contended; with rolls at RF > 0; with a
// backup that misses its ack, so the master replaces it; with the late
// appends a roll refuses (ROADMAP 3(a)); with the master killed mid-write;
// and with deletes of a present and a missing key. Every reply must leave
// at the same instant with the same contents, every node's busy time must
// change alike, and both engines must run the same events and draw the
// same sequence numbers throughout; at the end the counters, the logs,
// the backup sets and the live procs must agree, and the callbacks must
// have resumed fewer procs.
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

// TestReplayTiming holds the recovery replay to the proc replay it
// replaces (refReplayPartition) at RF 1 and RF 4: a recovery master
// replays a partition of 150 objects from another master's backups into
// 16 KiB segments, so its head rolls, while a client writes to it, and one
// of its head's backups is killed mid-chain, so a chain's ack times out
// and the backup is replaced. Everything compareTiming checks must match,
// and the callbacks must have resumed fewer procs.
func TestReplayTiming(t *testing.T) {
	const at = sim.Time(sim.Millisecond)
	for _, rf := range []int{1, 4} {
		t.Run(fmt.Sprintf("rf%d", rf), func(t *testing.T) {
			cfg := smallCfg(rf)
			cfg.CleanerThreshold = 0
			cfg.ReplicationTimeout = 2 * sim.Millisecond
			r, resumes, refResumes := compareTiming(t, 40*at, func(ref bool) *timingRig {
				r := newTimingRig(t, rf+3, cfg, ref)
				rm, crashed := r.servers[0], r.servers[rf+2]
				load(t, crashed, 150, 100)
				m := &wire.RecoverReq{Crashed: crashed.ID(), LastHash: ^uint64(0)}
				sources := map[int32]bool{crashed.ID(): true}
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
			if rm.Stats().ObjectsReplay.Value() != 150 || rm.Stats().BackupFailures.Value() == 0 || rm.Stats().SegmentsSealed.Value() == 0 {
				t.Error("the replay did not replay every object, roll and replace a backup")
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
