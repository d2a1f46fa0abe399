package realnode

import (
	"fmt"
	"sync"
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/logstore"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// ServerConfig tunes a real master.
type ServerConfig struct {
	// MemoryBytes is advertised at enlistment. Default 1 GiB.
	MemoryBytes int64
	// EnlistBackoff paces enlist retries. Default 200ms.
	EnlistBackoff time.Duration
}

func (c ServerConfig) memoryBytes() int64 {
	if c.MemoryBytes > 0 {
		return c.MemoryBytes
	}
	return 1 << 30
}

// enlistTimeout bounds one enlist attempt.
const enlistTimeout = time.Second

func (c ServerConfig) enlistBackoff() time.Duration {
	if c.EnlistBackoff > 0 {
		return c.EnlistBackoff
	}
	return 200 * time.Millisecond
}

// Server is a real-transport storage server. Its master is the
// store.Store the simulated master serves from (hashtable index over an
// append-only log, one set of ownership, version and tombstone rules), but
// serialized behind a sync mutex instead of sim time, and carrying real
// value bytes — virtual (length-only) payloads cannot cross a real wire.
// Its backup is the simulated backup's store.Backups, behind a mutex of
// its own. A request is valid only until its handler returns
// (transport.Handler), and the handlers keep none of it: the one copy of a
// written key and value is the log's, made by store.Apply, and of a
// replicated one the replica's.
type Server struct {
	tr        transport.Interface
	cfg       ServerConfig
	coordAddr string

	ln transport.Listener
	id int32

	mu sync.Mutex
	st *store.Store

	readsOK, writesOK, deletesOK uint64
	wrongServer                  uint64

	backupMu sync.Mutex // backup traffic never waits on the master's mu
	backups  store.Backups
}

// NewServer creates a master (not yet listening or enlisted).
func NewServer(tr transport.Interface, coordAddr string, cfg ServerConfig) *Server {
	return &Server{
		tr:        tr,
		cfg:       cfg,
		coordAddr: coordAddr,
		st:        store.New(logstore.DefaultConfig()),
		backups:   store.NewBackups(logstore.DefaultConfig().SegmentBytes),
	}
}

// Start binds addr and enlists with the coordinator, retrying with
// backoff until the coordinator answers (so boot order doesn't matter).
func (s *Server) Start(addr string) error {
	ln, err := s.tr.Listen(addr, transport.HandlerFunc(s.serve))
	if err != nil {
		return err
	}
	s.ln = ln
	conn, err := s.tr.Dial(s.coordAddr)
	if err != nil {
		ln.Close()
		return err
	}
	defer conn.Close()
	req := &wire.EnlistAddrReq{Addr: ln.Addr(), MemoryBytes: s.cfg.memoryBytes()}
	for attempt := 0; ; attempt++ {
		ctx := newDeadline(enlistTimeout)
		resp, err := conn.Call(ctx, req)
		ctx.release()
		if err == nil {
			m, ok := resp.(*wire.EnlistAddrResp)
			if !ok || m.Status != wire.StatusOK {
				ln.Close()
				return fmt.Errorf("realnode: enlist rejected: %#v", resp)
			}
			s.id = m.ServerID
			return nil
		}
		if attempt >= 50 {
			ln.Close()
			return fmt.Errorf("realnode: enlist with %s: %w", s.coordAddr, err)
		}
		time.Sleep(s.cfg.enlistBackoff())
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// ID returns the coordinator-assigned server id (valid after Start).
func (s *Server) ID() int32 { return s.id }

// Stop severs the listener; in-flight peers see connection loss. The
// store and the replicas the backup holds are discarded with the process —
// there is no recovery path.
func (s *Server) Stop() { s.ln.Close() }

func (s *Server) serve(remote string, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.ReadReq:
		return s.serveRead(m)
	case *wire.WriteReq:
		return s.write(wire.Object{Table: m.Table, Key: m.Key, ValueLen: m.ValueLen, Value: m.Value})
	case *wire.DeleteReq:
		return s.write(wire.Object{Table: m.Table, Key: m.Key, Tombstone: true})
	case *wire.MultiReadReq:
		return s.serveMultiRead(m)
	case *wire.MultiWriteReq:
		return s.serveMultiWrite(m)
	case *wire.AssignTabletsReq:
		return s.serveAssign(m)
	case *wire.PingReq:
		return &wire.PingResp{Seq: m.Seq}
	case *wire.OpenSegmentReq:
		s.backupMu.Lock()
		resp := s.backups.Open(m)
		s.backupMu.Unlock()
		return resp
	case *wire.ReplicateReq:
		s.backupMu.Lock()
		resp, _ := s.backups.Replicate(m)
		s.backupMu.Unlock()
		return resp
	case *wire.CloseSegmentReq:
		s.backupMu.Lock()
		resp, _ := s.backups.Close(m)
		s.backupMu.Unlock()
		return resp
	case *wire.FreeReplicasReq:
		s.backupMu.Lock()
		resp := s.backups.Free(m)
		s.backupMu.Unlock()
		return resp
	case *wire.SegmentInventoryReq:
		s.backupMu.Lock()
		resp := s.backups.Inventory(m)
		s.backupMu.Unlock()
		return resp
	case *wire.GetRecoveryDataReq:
		s.backupMu.Lock()
		resp, _, _ := s.backups.RecoveryData(m)
		s.backupMu.Unlock()
		return resp
	default:
		return nil // unknown request: drop, peer times out
	}
}

// serveAssign installs the replace-all ownership pushed by the
// coordinator.
func (s *Server) serveAssign(m *wire.AssignTabletsReq) wire.Message {
	s.mu.Lock()
	s.st.Tablets = append([]wire.Tablet(nil), m.Tablets...)
	s.mu.Unlock()
	return &wire.AssignTabletsResp{Status: wire.StatusOK}
}

// admitLocked answers StatusWrongServer (and counts it) for a key this
// master does not own, and otherwise starts loading the key's index
// bucket. Caller holds s.mu: a concurrent writer may double the index.
func (s *Server) admitLocked(table, keyHash uint64) wire.Status {
	if !s.st.Owns(table, keyHash) {
		s.wrongServer++
		return wire.StatusWrongServer
	}
	s.st.Prefetch(keyHash)
	return wire.StatusOK
}

// readLocked looks an admitted key up for a read. The result's Value is a
// VIEW of the log's bytes, and the response carries it as is: the
// transport encodes it after s.mu is released (transport.Handler), so a
// read holds the master mutex for the lookup only and copies nothing.
// That is safe because the bytes of an appended entry are never written
// again — later appends fill the block behind them — and a segment's
// blocks are never reused, so whoever frees a segment leaves this view to
// the collector. Caller holds s.mu.
func (s *Server) readLocked(table uint64, key []byte, keyHash uint64) wire.MultiReadResult {
	r := s.st.Read(table, key, keyHash)
	if r.Status == wire.StatusOK {
		s.readsOK++
	}
	return r
}

func (s *Server) serveRead(m *wire.ReadReq) wire.Message {
	keyHash := hashtable.HashKey(m.Table, m.Key)
	s.mu.Lock()
	r := wire.MultiReadResult{Status: s.admitLocked(m.Table, keyHash)}
	if r.Status == wire.StatusOK {
		r = s.readLocked(m.Table, m.Key, keyHash)
	}
	s.mu.Unlock()
	return &wire.ReadResp{Status: r.Status, Version: r.Version, ValueLen: r.ValueLen, Value: r.Value}
}

// write serves a WriteReq or a DeleteReq, o being the object or the
// tombstone it asks for.
func (s *Server) write(o wire.Object) wire.Message {
	o.KeyHash = hashtable.HashKey(o.Table, o.Key)
	s.mu.Lock()
	status := s.admitLocked(o.Table, o.KeyHash)
	if status == wire.StatusOK {
		_, status = s.st.Apply(&o, nil)
	}
	if status == wire.StatusOK && o.Tombstone {
		s.deletesOK++
	} else if status == wire.StatusOK {
		s.writesOK++
	}
	s.mu.Unlock()
	if o.Tombstone {
		return &wire.DeleteResp{Status: status, Version: o.Version}
	}
	return &wire.WriteResp{Status: status, Version: o.Version}
}

// stackBatch is the largest batch whose key hashes a multi-op keeps on
// the stack; a larger one allocates them.
const stackBatch = 64

// A multi-op hashes every item before it takes s.mu, then, under it,
// admits every item, which prefetches each owned item's index bucket
// before the first lookup, so the items' cache misses overlap instead of
// following one another.
func (s *Server) serveMultiRead(m *wire.MultiReadReq) wire.Message {
	items := make([]wire.MultiReadResult, len(m.Items))
	var buf [stackBatch]uint64
	hashes := buf[:0]
	for i := range m.Items {
		hashes = append(hashes, hashtable.HashKey(m.Items[i].Table, m.Items[i].Key))
	}
	s.mu.Lock()
	for i := range m.Items {
		items[i].Status = s.admitLocked(m.Items[i].Table, hashes[i])
	}
	for i := range m.Items {
		if items[i].Status == wire.StatusOK {
			items[i] = s.readLocked(m.Items[i].Table, m.Items[i].Key, hashes[i])
		}
	}
	s.mu.Unlock()
	return &wire.MultiReadResp{Status: wire.StatusOK, Items: items}
}

func (s *Server) serveMultiWrite(m *wire.MultiWriteReq) wire.Message {
	items := make([]wire.MultiWriteResult, len(m.Items))
	var buf [stackBatch]uint64
	hashes := buf[:0]
	for i := range m.Items {
		hashes = append(hashes, hashtable.HashKey(m.Items[i].Table, m.Items[i].Key))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range m.Items {
		items[i].Status = s.admitLocked(m.Items[i].Table, hashes[i])
	}
	for i := range m.Items {
		if items[i].Status != wire.StatusOK {
			continue
		}
		it := &m.Items[i]
		o := wire.Object{Table: it.Table, KeyHash: hashes[i], Key: it.Key, ValueLen: it.ValueLen, Value: it.Value}
		_, status := s.st.Apply(&o, nil)
		if status == wire.StatusOK {
			s.writesOK++
		}
		items[i] = wire.MultiWriteResult{Status: status, Version: o.Version}
	}
	return &wire.MultiWriteResp{Status: wire.StatusOK, Items: items}
}

// Counters reports (reads, writes, deletes, wrong-server) served OK.
func (s *Server) Counters() (reads, writes, deletes, wrongServer uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readsOK, s.writesOK, s.deletesOK, s.wrongServer
}

// Objects returns the number of live objects indexed.
func (s *Server) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Len()
}
