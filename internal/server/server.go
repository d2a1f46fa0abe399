// Package server implements a RAMCloud storage server: a master service
// (log-structured memory + hash table, serving reads and writes) collocated
// with a backup service (replica staging in DRAM, spill to disk) in a
// single process, sharing one dispatch thread and one worker pool — the
// arrangement whose contention effects the paper measures.
//
// Threading model, mirroring RAMCloud:
//
//   - One dispatch thread busy-polls the NIC. It permanently pins a core
//     (the paper's 25% CPU floor on 4-core nodes) and serializes request
//     hand-off at a fixed per-request cost. It does nothing but wait, so
//     it runs as engine events rather than a proc: a request that finds
//     it idle wakes it, and each hand-off is one scheduled callback.
//   - N worker threads (cores-1) execute requests, each from its own
//     queue. The dispatch hands every client request to its connection's
//     affine worker (connWorker), and an idle worker spins for
//     Costs.SpinTimeout before sleeping, so each active client keeps one
//     worker's core busy. Both choices are what make CPU usage saturate
//     long before throughput does (Finding 1). A worker is a proc only
//     while it blocks (worker.go): a read, a replica append, a ping runs
//     as engine callbacks, and so does a write, a delete or a write
//     batch, whose waits for the log head, its service time, its posts
//     and its acks are callbacks too (write.go). The worker's proc stays
//     suspended until a roll at RF > 0, a backup's replacement, a
//     recovery data request, a recover or a take needs it. A recovery
//     master's replay and a take are the same step machine, their proc
//     suspended behind it.
//   - Writes serialize on the log head; queueing there inflates service
//     time quadratically (the "nanoscheduling" thrash of Finding 2).
//   - Replication requests from other masters run through the same
//     dispatch and worker pool, which is exactly why replication costs
//     client throughput (Finding 3).
//
// The rules both roles serve by live in internal/store: the objects in
// store.Store, the backup's replicas in store.Backups, and the master's
// replication rules (each segment's backup set, the backups it has seen
// die, the substitute a timeout asks for, the recovery will) in
// store.Replicas. This package sends, waits and charges time around them.
package server

import (
	"fmt"

	"ramcloud/internal/logstore"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/wire"
)

// Server is one storage server process.
type Server struct {
	id   int32
	eng  *sim.Engine
	node *machine.Node
	net  *simnet.Network
	ep   *rpc.Endpoint
	disk *simdisk.Disk
	cfg  Config

	coordinator simnet.NodeID

	dead bool

	// Master state: the store (log, index, owned tablets, versions), each
	// segment's backups, and what the simulation wraps around them.
	st     *store.Store
	reps   store.Replicas
	logMu  *sim.Mutex
	frozen []wire.Tablet // ranges mid-migration; ops answer StatusRetry

	// workers are the client workers. The dispatch thread routes each
	// client request to the worker owning its connection (hash of the
	// source), RAMCloud's cache-affinity scheduling: one active client
	// connection keeps exactly one worker spin-hot (Table I's +25% CPU
	// per client).
	workers []worker

	// backupSvc is the backup service thread, which handles the whole
	// replication and recovery plane. Keeping it off the client workers
	// prevents replication RPCs from convoying behind a worker that is
	// itself blocked waiting for acks; its CPU still lands on the same
	// node, which is the contention the paper measures (Finding 3).
	backupSvc worker

	// The dispatch thread: busy from its wake-up until it finds Inbound
	// empty, paying for inHand (and, once penalized, for RecoveryPenalty
	// too). Its callbacks are bound once so scheduling them allocates
	// nothing.
	dispatching, penalized bool
	inHand                 rpc.Request
	takeFn, handOffFn      func()

	// Backup state: the replicas held, and those sealed but not yet on disk.
	backups store.Backups
	flushQ  *sim.Queue[*store.Replica]

	// recoveryActive > 0 while this node replays a partition.
	recoveryActive int

	// registry resolves peer addresses for zero-time bulk loading.
	registry Registry

	stats Stats
}

// New creates a server on the given node and attaches it to the fabric.
// Call Start to launch its dispatch thread, its workers and the procs
// behind them.
func New(e *sim.Engine, node *machine.Node, net *simnet.Network, disk *simdisk.Disk,
	coordinator simnet.NodeID, cfg Config) *Server {
	if cfg.Workers < 1 {
		panic("server: need at least one worker")
	}
	if cfg.Workers+1 > node.Spec.Cores {
		panic(fmt.Sprintf("server: %d workers + dispatch exceed %d cores", cfg.Workers, node.Spec.Cores))
	}
	s := &Server{
		id:          int32(node.ID),
		eng:         e,
		node:        node,
		net:         net,
		disk:        disk,
		cfg:         cfg,
		coordinator: coordinator,
		st:          store.New(cfg.Log),
		reps:        store.NewReplicas(int32(node.ID), cfg.FixedBackups, fabric{net}),
		logMu:       sim.NewMutex(e),
		backups:     store.NewBackups(cfg.Log.SegmentBytes),
		flushQ:      sim.NewQueue[*store.Replica](e),
	}
	s.workers = make([]worker, cfg.Workers)
	for i := range s.workers {
		s.workers[i].init(s)
	}
	s.backupSvc.init(s)
	s.ep = rpc.NewEndpoint(e, net, simnet.NodeID(node.ID))
	s.takeFn, s.handOffFn = s.takeRequest, s.handOff
	return s
}

// fabric tells store.Replicas which peers the network can reach. It is
// one pointer, so it goes into the interface without an allocation.
type fabric struct{ net *simnet.Network }

func (f fabric) Up(id int32) bool { return !f.net.IsDown(simnet.NodeID(id)) }

// ID returns the server's cluster id (== its node id).
func (s *Server) ID() int32 { return s.id }

// Addr returns the server's fabric address.
func (s *Server) Addr() simnet.NodeID { return s.ep.Node() }

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Log exposes the master's log (for verification in tests and tools).
func (s *Server) Log() *logstore.Log { return s.st.Log }

// SetPeers tells the server which nodes can host its replicas. The list
// may include the server itself; selection always excludes self.
func (s *Server) SetPeers(peers []simnet.NodeID) {
	s.reps.Peers = make([]int32, len(peers))
	for i, id := range peers {
		s.reps.Peers[i] = int32(id)
	}
}

// Start launches the dispatch thread (pinning one core), the workers, each
// with the proc it serves blocking requests on, and the flush proc.
func (s *Server) Start() {
	s.startDispatch()
	for i := range s.workers {
		w := &s.workers[i]
		w.proc = s.eng.Go(fmt.Sprintf("srv%d-worker%d", s.id, i), w.loop)
		w.wr.proc = w.proc
	}
	s.backupSvc.proc = s.eng.Go(fmt.Sprintf("srv%d-backupsvc", s.id), s.backupSvc.loop)
	s.eng.Go(fmt.Sprintf("srv%d-flush", s.id), s.flushLoop)
	if s.cfg.CleanerThreshold > 0 {
		s.eng.Go(fmt.Sprintf("srv%d-cleaner", s.id), s.cleanerLoop)
	}
}

// Kill crashes the server process: the NIC goes silent, accounting stops,
// and service threads stop at their next scheduling point, their procs
// exiting. In-flight requests are lost, exactly like a process kill; the
// dispatch thread drops the one in hand when its callback next runs, and a
// worker answers the one in hand into the downed NIC and serves no other.
func (s *Server) Kill() {
	s.dead = true
	s.node.Kill()
	s.net.SetDown(s.ep.Node(), true)
	// Wake idle threads with poison pills so their procs exit.
	for i := range s.workers {
		s.workers[i].push(rpc.Request{})
	}
	s.backupSvc.push(rpc.Request{})
	s.flushQ.Push(nil)
}

// Dead reports whether the server was killed.
func (s *Server) Dead() bool { return s.dead }

// startDispatch starts the dispatch thread, which serializes inbound
// requests onto the service queues at a fixed per-request cost; its CPU is
// the pinned core. It runs as engine callbacks, each scheduled where a
// polling proc would have drawn its wake-up or its sleep, so the event
// order is that proc's. Its first poll is where the proc was spawned.
func (s *Server) startDispatch() {
	s.node.PinCores(1)
	s.ep.OnRequest(s.wakeDispatch)
	s.wakeDispatch()
}

// wakeDispatch runs after every request lands on Inbound and wakes an idle
// dispatch thread at the current instant.
func (s *Server) wakeDispatch() {
	if s.dispatching || s.dead {
		return
	}
	s.dispatching = true
	s.eng.ScheduleAt(s.eng.Now(), s.takeFn)
}

// takeRequest pops the next request and pays its hand-off cost, or idles
// the thread when Inbound is empty.
func (s *Server) takeRequest() {
	req, ok := s.ep.Inbound.TryPop()
	if !ok || s.dead {
		s.dispatching = false
		return
	}
	s.inHand = req
	s.eng.Schedule(s.cfg.Costs.Dispatch, s.handOffFn)
}

// handOff routes the request in hand once its cost is paid, then takes
// the next one in the same event.
func (s *Server) handOff() {
	if !s.penalized && s.recoveryActive > 0 && s.cfg.Costs.RecoveryPenalty > 0 {
		// Recovery traffic (segment fetches, re-replication, replay
		// bookkeeping) competes for the dispatch thread; foreground
		// requests pay the paper's 1.4-2.4x latency inflation.
		s.penalized = true
		s.eng.Schedule(s.cfg.Costs.RecoveryPenalty, s.handOffFn)
		return
	}
	req := s.inHand
	s.inHand, s.penalized = rpc.Request{}, false
	if s.dead {
		s.dispatching = false
		return
	}
	switch m := req.Msg.(type) {
	case *wire.ReadReq, *wire.WriteReq, *wire.DeleteReq,
		*wire.MultiReadReq, *wire.MultiWriteReq:
		s.workers[connWorker(req.From, len(s.workers))].push(req)
	case *wire.RDMAWriteReq:
		// One-sided RDMA write: the NIC deposits the objects into the
		// replica buffer with no thread involvement and no CPU charged;
		// the completion is generated immediately (Sec. IX.B proposal,
		// the zero-CPU replication path).
		resp, bytes := s.backups.RDMAWrite(m)
		if bytes > 0 {
			s.stats.ReplicaAppends.Add(int64(len(m.Objects)))
		}
		s.ep.Reply(req, resp)
	default:
		s.backupSvc.push(req)
	}
	s.takeRequest()
}

// connWorker maps a connection to its affine worker.
func connWorker(from simnet.NodeID, workers int) int {
	h := uint64(from) * 0x9E3779B97F4A7C15
	return int(h % uint64(workers))
}

// busy burns the CPU of a worker serving a blocking request: the span is
// accounted on the node and simulated time advances.
func (s *Server) busy(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	now := p.Now()
	s.node.AddBusy(now, now.Add(d))
	p.Sleep(d)
}

// lockWithSpin acquires mu, accounting up to SpinTimeout of the wait as
// CPU burn: a worker contending for the log head spins and context-
// switches rather than idling, which is what drives the paper's power
// increase under update-heavy load (Fig. 4a).
func (s *Server) lockWithSpin(p *sim.Proc, mu *sim.Mutex) {
	t0, spin := p.Now(), s.startSpin(mu)
	mu.Lock(p)
	s.endSpin(t0, spin)
}

// startSpin accounts SpinTimeout of CPU burn from now when mu is held, as
// a thread about to wait for it spins, and returns what it accounted.
func (s *Server) startSpin(mu *sim.Mutex) sim.Duration {
	spin := s.cfg.Costs.SpinTimeout
	if s.dead || spin <= 0 || !mu.Locked() {
		return 0
	}
	now := s.eng.Now()
	s.node.AddBusy(now, now.Add(spin))
	return spin
}

// endSpin takes back the part of a spin accounted from t0 that the wait,
// over now, did not use.
func (s *Server) endSpin(t0 sim.Time, spin sim.Duration) {
	if now := s.eng.Now(); spin > 0 && now.Sub(t0) < spin {
		s.node.SubBusy(now, t0.Add(spin))
	}
}

// interference returns the service-cost multiplier: >1 while a recovery
// replay is running on this node.
func (s *Server) interference() float64 {
	if s.recoveryActive > 0 {
		return s.cfg.Costs.InterferenceFactor
	}
	return 1
}

// serve executes one request that blocks on a worker's proc; the requests
// that never block run as the worker's callbacks (worker.start).
func (s *Server) serve(p *sim.Proc, req rpc.Request) {
	switch m := req.Msg.(type) {
	case *wire.GetRecoveryDataReq:
		s.serveGetRecoveryData(p, req, m)
	case *wire.RecoverReq:
		s.serveRecover(p, req, m)
	case *wire.MigrateTabletReq:
		s.serveMigrateTablet(req, m)
	case *wire.TakeTabletReq:
		s.serveTakeTablet(p, req, m)
	default:
		panic(fmt.Sprintf("server %d: unexpected request %T", s.id, req.Msg))
	}
}
