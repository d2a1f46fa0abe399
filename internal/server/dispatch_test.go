package server

import (
	"cmp"
	"slices"
	"testing"

	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/wire"
)

// handed is one request as its service received it from the dispatch
// thread.
type handed struct {
	from        simnet.NodeID
	arrived, at sim.Time
}

// dispatchOnly runs one server whose dispatch thread runs but whose
// services do not: test procs drain the worker queues and the backup
// queue instead, recording when each request reached them. Each of n
// clients sends one request at 1 ms, so all of them land on the server
// together; even clients read and odd ones ping, so the requests go to the
// workers and to the backup service. prepare runs before the engine does.
func dispatchOnly(cfg Config, n int, prepare func(*Server)) []handed {
	eng := sim.New(1)
	defer eng.Shutdown()
	net := simnet.New(eng, simnet.DefaultConfig())
	node := machine.NewNode(eng, 1, machine.Grid5000Nancy())
	s := New(eng, node, net, simdisk.New(eng, simdisk.DefaultConfig()), simnet.NodeID(-1), cfg)
	s.startDispatch()
	var got []handed
	var queues []*sim.Queue[rpc.Request]
	for i := range s.workers {
		queues = append(queues, &s.workers[i].q)
	}
	for _, q := range append(queues, &s.backupSvc.q) {
		eng.Go("drain", func(p *sim.Proc) {
			for {
				if req := q.Pop(p); req.Msg != nil { // not a poison pill from Kill
					got = append(got, handed{req.From, req.ArrivedAt, p.Now()})
				}
			}
		})
	}
	for i := 0; i < n; i++ {
		ep := rpc.NewEndpoint(eng, net, simnet.NodeID(100+i))
		var msg wire.Message = &wire.ReadReq{Table: 1, Key: []byte("k")}
		if i%2 == 1 {
			msg = &wire.PingReq{Seq: uint64(i)}
		}
		eng.Schedule(sim.Millisecond, func() { ep.AsyncCall(s.Addr(), msg) })
	}
	prepare(s)
	eng.Run()
	return got
}

// TestDispatchTiming pins the dispatch thread: requests that arrive
// together reach their services one Costs.Dispatch apart, in arrival
// order; while a replay runs each also pays Costs.RecoveryPenalty; and
// once the server is killed, nothing it still holds is served.
func TestDispatchTiming(t *testing.T) {
	const n = 6
	cfg := DefaultConfig()
	check := func(what string, got []handed, step sim.Duration) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d requests reached a service, want %d", what, len(got), n)
		}
		// Arrival order: a read is a few bytes longer than a ping, so it
		// lands a few nanoseconds later.
		order := slices.Clone(got)
		slices.SortStableFunc(order, func(a, b handed) int { return cmp.Compare(a.arrived, b.arrived) })
		t0 := order[0].arrived
		for k, h := range got {
			if h != order[k] || h.arrived.Sub(t0) >= step {
				t.Fatalf("%s: hand-offs %v, want all arrived within %v, in arrival order %v", what, got, step, order)
			}
			if want := t0.Add(sim.Duration(k+1) * step); h.at != want {
				t.Errorf("%s: hand-off %d at %v, want %v", what, k, h.at, want)
			}
		}
	}
	idle := dispatchOnly(cfg, n, func(*Server) {})
	check("idle", idle, cfg.Costs.Dispatch)
	check("recovering", dispatchOnly(cfg, n, func(s *Server) { s.recoveryActive = 1 }),
		cfg.Costs.Dispatch+cfg.Costs.RecoveryPenalty)

	// Kill the server half-way through the first hand-off, with the other
	// requests still queued.
	queued := -1
	killed := dispatchOnly(cfg, n, func(s *Server) {
		s.eng.ScheduleAt(idle[n-1].arrived.Add(cfg.Costs.Dispatch/2), func() {
			queued = s.ep.Inbound.Len()
			s.Kill()
		})
	})
	if queued != n-1 {
		t.Fatalf("%d requests queued at the kill, want %d", queued, n-1)
	}
	if len(killed) != 0 {
		t.Fatalf("a killed server served %v", killed)
	}
}

// TestStartSpawnsNoDispatchProc checks that the dispatch thread costs a
// pinned core but no proc: Start spawns the workers, the backup service,
// the flusher and the cleaner, and nothing else.
func TestStartSpawnsNoDispatchProc(t *testing.T) {
	for _, threshold := range []float64{0, 0.9} {
		cfg := DefaultConfig()
		cfg.CleanerThreshold = threshold
		eng := sim.New(1)
		net := simnet.New(eng, simnet.DefaultConfig())
		node := machine.NewNode(eng, 1, machine.Grid5000Nancy())
		s := New(eng, node, net, simdisk.New(eng, simdisk.DefaultConfig()), simnet.NodeID(-1), cfg)
		s.Start()
		want := cfg.Workers + 2 // the backup service and the flusher
		if threshold > 0 {
			want++
		}
		if got := eng.LiveProcs(); got != want {
			t.Errorf("cleaner threshold %v: %d procs after Start, want %d", threshold, got, want)
		}
		if got := node.PinnedCores(); got != 1 {
			t.Errorf("cleaner threshold %v: %d pinned cores after Start, want 1", threshold, got)
		}
		eng.Shutdown()
	}
}

// TestLateAckSkipsReusedFuture has a backup answer a replication request
// after its ack's deadline, judged by writeOp's send and ack stages on the
// master's proc as a roll awaits them, while the master's next call, which
// reuses the timed-out call's future, is still waiting. The late ack must
// be dropped, not taken for that call's answer.
func TestLateAckSkipsReusedFuture(t *testing.T) {
	cfg := smallCfg(1)
	rig := newRig(t, 1, cfg)
	defer rig.eng.Shutdown()
	m := rig.servers[0]
	timeout := cfg.ReplicationTimeout
	// The backup answers every request two deadlines after it arrives: the
	// fan-out's (seq 1) between the next call's (seq 2) issue and answer.
	backup := rpc.NewEndpoint(rig.eng, rig.net, 50)
	rig.eng.Go("backup", func(p *sim.Proc) {
		for {
			req := backup.Inbound.Pop(p)
			seq := req.Msg.(*wire.PingReq).Seq
			rig.eng.Go("answer", func(p *sim.Proc) {
				p.Sleep(2 * timeout)
				backup.Reply(req, &wire.PingResp{Seq: seq})
			})
		}
	})
	var got uint64
	var ok bool
	rig.eng.Go("master", func(p *sim.Proc) {
		x := m.newReplayer(p, 1)
		x.onProc = true
		x.send(0, []int32{int32(backup.Node())}, &wire.PingReq{Seq: 1}, 0, false)
		x.await()
		var resp wire.Message
		if resp, ok = m.ep.CallTimeout(p, backup.Node(), &wire.PingReq{Seq: 2}, 3*timeout); ok {
			got = resp.(*wire.PingResp).Seq
		}
		rig.eng.Stop()
	})
	rig.eng.Run()
	if m.Stats().BackupFailures.Value() != 1 {
		t.Fatalf("%d backup failures, want the one missed deadline", m.Stats().BackupFailures.Value())
	}
	if !ok || got != 2 {
		t.Fatalf("the call after the missed ack: ok=%v seq=%d, want its own answer, seq 2", ok, got)
	}
}
