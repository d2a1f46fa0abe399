package realnode

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ramcloud/internal/client"
	"ramcloud/internal/core"
	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
)

// TestMastersAgree sends one scripted conversation to the simulated master
// (a one-server cluster, no replication) and to the real master's handler,
// and requires the same answers, field for field: statuses, versions,
// lengths and value bytes. The two serve from one store; what this holds
// together is what each still does around it — ownership checks, the
// multi-op loops, which status answers what.
func TestMastersAgree(t *testing.T) {
	// Both own the lower half of table 1, so the script can name a key
	// neither owns.
	owned := wire.Tablet{Table: 1, StartHash: 0, EndHash: 1<<63 - 1}
	next := 0
	keyIn := func(want bool) []byte { // a fresh key inside (or outside) the owned half
		for {
			k := []byte(fmt.Sprintf("key%d", next))
			next++
			if (hashtable.HashKey(1, k) <= owned.EndHash) == want {
				return k
			}
		}
	}
	a, b, c, stranger := keyIn(true), keyIn(true), keyIn(true), keyIn(false)
	write := func(key []byte, n int, fill byte) *wire.WriteReq {
		return &wire.WriteReq{Table: 1, Key: key, ValueLen: uint32(n), Value: bytes.Repeat([]byte{fill}, n)}
	}
	item := func(key []byte, n int, fill byte) wire.MultiWriteItem {
		return wire.MultiWriteItem{Table: 1, Key: key, ValueLen: uint32(n), Value: bytes.Repeat([]byte{fill}, n)}
	}
	script := []wire.Message{
		&wire.ReadReq{Table: 1, Key: a}, // absent
		write(a, 10, 'x'),
		&wire.ReadReq{Table: 1, Key: a},
		write(a, 20, 'y'), // overwrite
		&wire.ReadReq{Table: 1, Key: a},
		write(stranger, 5, 'z'),
		&wire.ReadReq{Table: 1, Key: stranger},
		&wire.ReadReq{Table: 2, Key: a},   // a table neither owns
		&wire.DeleteReq{Table: 1, Key: b}, // absent
		&wire.DeleteReq{Table: 1, Key: stranger},
		&wire.DeleteReq{Table: 1, Key: a},
		&wire.ReadReq{Table: 1, Key: a}, // deleted
		&wire.DeleteReq{Table: 1, Key: a},
		&wire.MultiWriteReq{Items: []wire.MultiWriteItem{item(a, 7, 'p'), item(stranger, 8, 'q'), item(b, 9, 'r'), item(b, 11, 's')}},
		&wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 1, Key: b}, {Table: 1, Key: c}, {Table: 1, Key: stranger}, {Table: 1, Key: a}}},
		write(c, 30, 't'),
		&wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 1, Key: c}}},
		&wire.MultiWriteReq{Items: []wire.MultiWriteItem{item(stranger, 3, 'u')}}, // nothing owned
		&wire.DeleteReq{Table: 1, Key: b},                                         // written by the batch
		&wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 1, Key: b}, {Table: 2, Key: c}, {Table: 1, Key: c}}},
	}

	fromSim := simAnswers(script, owned)

	realMaster := NewServer(nil, "", ServerConfig{}) // never started: the handler is called directly
	realMaster.serve("", &wire.AssignTabletsReq{Tablets: []wire.Tablet{owned}})
	for i, req := range script {
		got := realMaster.serve("", req)
		if !reflect.DeepEqual(got, fromSim[i]) {
			t.Errorf("step %d, %T:\n  real master: %+v\n  simulated:   %+v", i, req, got, fromSim[i])
		}
	}
}

// simAnswers sends script, in order, to a one-server simulated cluster with
// no replication whose master owns tablets, and returns its answers.
func simAnswers(script []wire.Message, tablets ...wire.Tablet) []wire.Message {
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	coord := rpc.NewEndpoint(eng, net, simnet.NodeID(-1)) // swallows the master's wills
	cfg := server.DefaultConfig()
	cfg.ReplicationFactor = 0
	srv := server.New(eng, machine.NewNode(eng, 1, machine.Grid5000Nancy()), net,
		simdisk.New(eng, simdisk.DefaultConfig()), coord.Node(), cfg)
	srv.SetPeers([]simnet.NodeID{srv.Addr()})
	for _, t := range tablets {
		srv.AssignTablet(t)
	}
	srv.Start()
	client := rpc.NewEndpoint(eng, net, simnet.NodeID(999))
	answers := make([]wire.Message, 0, len(script))
	eng.Go("client", func(p *sim.Proc) {
		for _, req := range script {
			answers = append(answers, client.Call(p, srv.Addr(), req))
		}
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	return answers
}

// TestBackupsAgree sends one scripted backup conversation to the simulated
// server's backup (its service thread, flush and disk read on the way) and
// to the real server's handler, and requires the same answers, field for
// field, and the answers the script states: the two serve from one
// store.Backups, so agreeing alone would pass a rule both got wrong.
func TestBackupsAgree(t *testing.T) {
	const m1, m2 = 7, 8
	obj := func(key string, version uint64, value string) wire.Object {
		return wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, []byte(key)), Key: []byte(key),
			ValueLen: uint32(len(value)), Value: []byte(value), Version: version}
	}
	a, b, c := obj("a", 1, "alpha"), obj("b", 2, strings.Repeat("b", 300)), obj("", 4, "empty key")
	tomb := wire.Object{Table: 1, KeyHash: a.KeyHash, Key: a.Key, Version: 3, Tombstone: true}
	x := obj("x", 1, "the other master")
	bytesOf := func(objs ...wire.Object) uint32 {
		n := 0
		for i := range objs {
			e := store.EntryOf(&objs[i])
			n += e.StorageSize()
		}
		return uint32(n)
	}
	seg1 := []wire.Object{a, b, tomb, c} // m1's segment 1, in append order
	// Two disjoint ranges that split segment 1, and one inside a gap
	// between its key hashes that matches nothing.
	hashes := []uint64{a.KeyHash, b.KeyHash, c.KeyHash}
	slices.Sort(hashes)
	mid, gap := hashes[1], hashes[0]+1
	in := func(first, last uint64) (objs []wire.Object) {
		for _, o := range seg1 {
			if o.KeyHash >= first && o.KeyHash <= last {
				objs = append(objs, o)
			}
		}
		return objs
	}
	recovery := func(master int32, segment, first, last uint64) *wire.GetRecoveryDataReq {
		return &wire.GetRecoveryDataReq{Master: master, Segment: segment, FirstHash: first, LastHash: last}
	}
	ok := wire.StatusOK
	steps := []struct {
		req  wire.Message
		want wire.Message
	}{
		{&wire.OpenSegmentReq{Master: m1, Segment: 1}, &wire.OpenSegmentResp{Status: ok}},
		{&wire.ReplicateReq{Master: m1, Segment: 1, Objects: []wire.Object{a, b}}, &wire.ReplicateResp{Status: ok}},
		{&wire.ReplicateReq{Master: m1, Segment: 1, Objects: []wire.Object{tomb}}, &wire.ReplicateResp{Status: ok}},
		{&wire.ReplicateReq{Master: m1, Segment: 1, Objects: []wire.Object{c}}, &wire.ReplicateResp{Status: ok}},
		{&wire.ReplicateReq{Master: m1, Segment: 9, Objects: []wire.Object{a}}, &wire.ReplicateResp{Status: wire.StatusError}},
		{&wire.OpenSegmentReq{Master: m1, Segment: 2}, &wire.OpenSegmentResp{Status: ok}},
		{&wire.ReplicateReq{Master: m1, Segment: 2, Objects: []wire.Object{b}}, &wire.ReplicateResp{Status: ok}},
		{&wire.CloseSegmentReq{Master: m1, Segment: 1, SegmentBytes: bytesOf(seg1...)}, &wire.CloseSegmentResp{Status: ok}},
		{&wire.CloseSegmentReq{Master: m1, Segment: 9}, &wire.CloseSegmentResp{Status: wire.StatusError}},
		{&wire.OpenSegmentReq{Master: m2, Segment: 1}, &wire.OpenSegmentResp{Status: ok}},
		{&wire.ReplicateReq{Master: m2, Segment: 1, Objects: []wire.Object{x}}, &wire.ReplicateResp{Status: ok}},
		{&wire.SegmentInventoryReq{Master: m1}, &wire.SegmentInventoryResp{Status: ok,
			Segments: []wire.SegmentInfo{{Segment: 1, Bytes: bytesOf(seg1...)}, {Segment: 2, Bytes: bytesOf(b)}}}},
		{&wire.SegmentInventoryReq{Master: m2}, &wire.SegmentInventoryResp{Status: ok,
			Segments: []wire.SegmentInfo{{Segment: 1, Bytes: bytesOf(x)}}}},
		{recovery(m1, 1, 0, mid), &wire.GetRecoveryDataResp{Status: ok, SegmentBytes: bytesOf(seg1...), Objects: in(0, mid)}},
		{recovery(m1, 1, mid+1, ^uint64(0)), &wire.GetRecoveryDataResp{Status: ok, SegmentBytes: bytesOf(seg1...), Objects: in(mid+1, ^uint64(0))}},
		{recovery(m1, 1, gap, gap), &wire.GetRecoveryDataResp{Status: ok, SegmentBytes: bytesOf(seg1...)}},
		{&wire.FreeReplicasReq{Master: m1}, &wire.FreeReplicasResp{Status: ok}},
		{&wire.SegmentInventoryReq{Master: m1}, &wire.SegmentInventoryResp{Status: ok}},
		{recovery(m1, 1, 0, ^uint64(0)), &wire.GetRecoveryDataResp{Status: wire.StatusError}},
		{recovery(m2, 1, 0, ^uint64(0)), &wire.GetRecoveryDataResp{Status: ok, SegmentBytes: bytesOf(x), Objects: []wire.Object{x}}},
	}
	if len(in(gap, gap)) != 0 || len(in(0, mid)) == 0 || len(in(mid+1, ^uint64(0))) == 0 {
		t.Fatal("the script's hash ranges do not split segment 1 as intended")
	}
	script := make([]wire.Message, len(steps))
	for i := range steps {
		script[i] = steps[i].req
	}
	fromSim := simAnswers(script)

	realServer := NewServer(nil, "", ServerConfig{}) // never started: the handler is called directly
	for i, step := range steps {
		got := realServer.serve("", step.req)
		if !reflect.DeepEqual(got, fromSim[i]) {
			t.Errorf("step %d, %T:\n  real backup: %+v\n  simulated:   %+v", i, step.req, got, fromSim[i])
		}
		if !reflect.DeepEqual(got, step.want) {
			t.Errorf("step %d, %T:\n  answered %+v\n  want     %+v", i, step.req, got, step.want)
		}
	}
}

// scripted is the cluster both clients talk to in TestClientsAgree: one
// master that answers the n-th data request (for a multi-op, the n-th
// item) with the n-th scripted status, and one coordinator that serves a
// fixed map, table 1 whole on master 1. A scripted drop (status 0)
// swallows a whole request, so the client sees a lost RPC. Both record
// what they receive, the real client's server-list fetch left out.
type scripted struct {
	mu       sync.Mutex
	statuses []wire.Status
	trace    []string
}

const drop wire.Status = 0

var agreeTablets = []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 1}}

func (s *scripted) note(what string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = append(s.trace, what)
}

// next pops the next status; an exhausted script answers Error.
func (s *scripted) next() wire.Status {
	if len(s.statuses) == 0 {
		return wire.StatusError
	}
	st := s.statuses[0]
	s.statuses = s.statuses[1:]
	return st
}

// dropped pops a scripted drop, if one is next.
func (s *scripted) dropped() bool {
	if len(s.statuses) > 0 && s.statuses[0] == drop {
		s.statuses = s.statuses[1:]
		return true
	}
	return false
}

// master answers one data request; nil drops it.
func (s *scripted) master(msg wire.Message) wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := msg.(type) {
	case *wire.ReadReq:
		s.trace = append(s.trace, "Read")
		if s.dropped() {
			return nil
		}
		return &wire.ReadResp{Status: s.next(), Version: 1, ValueLen: 1, Value: []byte("v")}
	case *wire.WriteReq:
		s.trace = append(s.trace, "Write")
		if s.dropped() {
			return nil
		}
		return &wire.WriteResp{Status: s.next(), Version: 2}
	case *wire.DeleteReq:
		s.trace = append(s.trace, "Delete")
		if s.dropped() {
			return nil
		}
		return &wire.DeleteResp{Status: s.next(), Version: 3}
	case *wire.MultiReadReq:
		s.trace = append(s.trace, fmt.Sprintf("MultiRead×%d", len(m.Items)))
		if s.dropped() {
			return nil
		}
		items := make([]wire.MultiReadResult, len(m.Items))
		for i := range items {
			items[i] = wire.MultiReadResult{Status: s.next(), Version: 1, ValueLen: 1, Value: []byte("v")}
		}
		return &wire.MultiReadResp{Status: wire.StatusOK, Items: items}
	case *wire.MultiWriteReq:
		s.trace = append(s.trace, fmt.Sprintf("MultiWrite×%d", len(m.Items)))
		if s.dropped() {
			return nil
		}
		items := make([]wire.MultiWriteResult, len(m.Items))
		for i := range items {
			items[i] = wire.MultiWriteResult{Status: s.next(), Version: 2}
		}
		return &wire.MultiWriteResp{Status: wire.StatusOK, Items: items}
	}
	return nil
}

// agreeClient is what the cases drive: one client or the other, each
// result reduced to its error class.
type agreeClient interface {
	read(table uint64, key []byte) error
	write(table uint64, key []byte) error
	del(table uint64, key []byte) error
	multiRead(table uint64, keys [][]byte) []error
	multiWrite(table uint64, keys [][]byte) []error
}

type simAgree struct {
	c *client.Client
	p *sim.Proc
}

func (a simAgree) read(table uint64, key []byte) error {
	_, _, err := a.c.Read(a.p, table, key)
	return err
}
func (a simAgree) write(table uint64, key []byte) error {
	return a.c.Write(a.p, table, key, 1, []byte("w"))
}
func (a simAgree) del(table uint64, key []byte) error { return a.c.Delete(a.p, table, key) }
func (a simAgree) multiRead(table uint64, keys [][]byte) []error {
	return simErrs(a.c.MultiRead(a.p, table, keys))
}
func (a simAgree) multiWrite(table uint64, keys [][]byte) []error {
	ops := make([]client.MultiWriteOp, len(keys))
	for i, k := range keys {
		ops[i] = client.MultiWriteOp{Key: k, ValueLen: 1, Value: []byte("w")}
	}
	return simErrs(a.c.MultiWrite(a.p, table, ops))
}

func simErrs(rs []client.MultiResult) []error {
	errs := make([]error, len(rs))
	for i, r := range rs {
		errs[i] = r.Err
	}
	return errs
}

type realAgree struct{ c *Client }

func (a realAgree) read(table uint64, key []byte) error {
	_, _, err := a.c.Get(table, key)
	return err
}
func (a realAgree) write(table uint64, key []byte) error {
	_, err := a.c.Put(table, key, []byte("w"))
	return err
}
func (a realAgree) del(table uint64, key []byte) error { return a.c.Delete(table, key) }
func (a realAgree) multiRead(table uint64, keys [][]byte) []error {
	return realErrs(a.c.MultiRead(table, keys))
}
func (a realAgree) multiWrite(table uint64, keys [][]byte) []error {
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = []byte("w")
	}
	return realErrs(a.c.MultiWrite(table, keys, values))
}

func realErrs(rs []MultiResult) []error {
	errs := make([]error, len(rs))
	for i, r := range rs {
		errs[i] = r.Err
	}
	return errs
}

// class names an error the way both clients mean it.
func class(err error) string {
	switch {
	case err == nil:
		return "OK"
	case errors.Is(err, client.ErrNotFound), errors.Is(err, ErrNotFound):
		return "NotFound"
	case errors.Is(err, client.ErrNoTable), errors.Is(err, ErrNoTable):
		return "NoTable"
	case errors.Is(err, client.ErrUnavailable), errors.Is(err, ErrUnavailable):
		return "Unavailable"
	}
	return err.Error()
}

// agreeOnSim runs one case through the simulated client, over rpc
// endpoints on a sim engine.
func agreeOnSim(s *scripted, do func(agreeClient) []error) []error {
	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	coord := rpc.NewEndpoint(eng, net, simnet.NodeID(-1))
	master := rpc.NewEndpoint(eng, net, simnet.NodeID(1))
	eng.Go("coord", func(p *sim.Proc) {
		for {
			req := coord.Inbound.Pop(p)
			if _, ok := req.Msg.(*wire.GetTabletMapReq); ok {
				s.note("Map")
				coord.Reply(req, &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: agreeTablets})
			}
		}
	})
	eng.Go("master", func(p *sim.Proc) {
		for {
			req := master.Inbound.Pop(p)
			if resp := s.master(req.Msg); resp != nil {
				master.Reply(req, resp)
			}
		}
	})
	cfg := client.DefaultConfig()
	cfg.RPCTimeout = 20 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.ReadOverhead, cfg.UpdateOverhead = 0, 0
	c := client.New(eng, net, simnet.NodeID(100), coord.Node(), cfg)
	var errs []error
	eng.Go("app", func(p *sim.Proc) {
		c.WarmRoutes(p)
		s.trace = nil
		errs = do(simAgree{c, p})
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()
	return errs
}

// agreeOnTCP runs one case through the real client, over loopback TCP.
func agreeOnTCP(t *testing.T, s *scripted, do func(agreeClient) []error) []error {
	tr := &transport.TCP{}
	masterAddr := listenTCP(t, tr, func(_ string, msg wire.Message) wire.Message { return s.master(msg) })
	coordAddr := listenTCP(t, tr, func(_ string, msg wire.Message) wire.Message {
		switch msg.(type) {
		case *wire.GetTabletMapReq:
			s.note("Map")
			return &wire.GetTabletMapResp{Status: wire.StatusOK, Tablets: agreeTablets}
		case *wire.ServerListReq:
			return &wire.ServerListResp{Status: wire.StatusOK, Servers: []wire.ServerAddr{{ID: 1, Addr: masterAddr}}}
		}
		return nil
	})
	c := NewClient(tr, coordAddr, ClientConfig{
		RPCTimeout: 100 * time.Millisecond,
		MaxRetries: 3,
		RetryBase:  time.Millisecond,
		RetryCap:   4 * time.Millisecond,
	})
	defer c.Close()
	c.Refresh()
	s.mu.Lock()
	s.trace = nil
	s.mu.Unlock()
	return do(realAgree{c})
}

// TestClientsAgree drives the simulated and the real client through one
// scripted status stream per case and requires the same requests at the
// master and the coordinator, in the same order, and the same results:
// both decide by store.Judge and store.Group, and only their waiting
// differs, which no trace shows.
func TestClientsAgree(t *testing.T) {
	const (
		ok, wrong, retry = wire.StatusOK, wire.StatusWrongServer, wire.StatusRetry
		unknownKey       = wire.StatusUnknownKey
	)
	k := []byte("k")
	abc := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	read := func(table uint64) func(agreeClient) []error {
		return func(c agreeClient) []error { return []error{c.read(table, k)} }
	}
	for _, c := range []struct {
		name     string
		statuses []wire.Status
		do       func(agreeClient) []error
		trace    []string
		want     []string
	}{
		{"read rerouted, then backed off", []wire.Status{wrong, retry, ok}, read(1),
			[]string{"Read", "Map", "Read", "Read"}, []string{"OK"}},
		{"read through Recovering and Error", []wire.Status{wire.StatusRecovering, wire.StatusError, ok}, read(1),
			[]string{"Read", "Read", "Read"}, []string{"OK"}},
		{"read whose request is lost", []wire.Status{drop, ok}, read(1),
			[]string{"Read", "Map", "Read"}, []string{"OK"}},
		{"read out of retries", []wire.Status{retry, retry, retry, retry}, read(1),
			[]string{"Read", "Read", "Read", "Read"}, []string{"Unavailable"}},
		{"write answered UnknownKey backs off", []wire.Status{unknownKey, ok},
			func(c agreeClient) []error { return []error{c.write(1, k)} },
			[]string{"Write", "Write"}, []string{"OK"}},
		{"delete of an absent key", []wire.Status{unknownKey},
			func(c agreeClient) []error { return []error{c.del(1, k)} },
			[]string{"Delete"}, []string{"NotFound"}},
		{"multi-read rerouted and backed off", []wire.Status{ok, wrong, retry, ok, ok},
			func(c agreeClient) []error { return c.multiRead(1, abc) },
			[]string{"MultiRead×3", "Map", "MultiRead×2"}, []string{"OK", "OK", "OK"}},
		{"multi-write rerouted and backed off", []wire.Status{ok, wrong, retry, ok, ok},
			func(c agreeClient) []error { return c.multiWrite(1, abc) },
			[]string{"MultiWrite×3", "Map", "MultiWrite×2"}, []string{"OK", "OK", "OK"}},
		{"multi-read whose request is lost", []wire.Status{drop, ok, ok, ok},
			func(c agreeClient) []error { return c.multiRead(1, abc) },
			[]string{"MultiRead×3", "Map", "MultiRead×3"}, []string{"OK", "OK", "OK"}},
		{"multi-read of absent keys, multi-write answered UnknownKey", []wire.Status{unknownKey, ok, unknownKey, unknownKey, ok, ok},
			func(c agreeClient) []error { return append(c.multiRead(1, abc), c.multiWrite(1, abc[:2])...) },
			[]string{"MultiRead×3", "MultiWrite×2", "MultiWrite×1"}, []string{"NotFound", "OK", "NotFound", "OK", "OK"}},
		{"read of a table no tablet covers", nil, read(9),
			[]string{"Map"}, []string{"NoTable"}},
		{"multi-read of a table no tablet covers", nil,
			func(c agreeClient) []error { return c.multiRead(9, abc) },
			[]string{"Map"}, []string{"NoTable", "NoTable", "NoTable"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]struct{ trace, results []string }
			for side := range got {
				s := &scripted{statuses: slices.Clone(c.statuses)}
				var errs []error
				if side == 0 {
					errs = agreeOnSim(s, c.do)
				} else {
					errs = agreeOnTCP(t, s, c.do)
				}
				got[side].trace = s.trace
				for _, err := range errs {
					got[side].results = append(got[side].results, class(err))
				}
			}
			onSim, onTCP := got[0], got[1]
			if !slices.Equal(onSim.trace, onTCP.trace) || !slices.Equal(onSim.results, onTCP.results) {
				t.Fatalf("the clients disagree:\n  simulated: %v → %v\n  real:      %v → %v", onSim.trace, onSim.results, onTCP.trace, onTCP.results)
			}
			if !slices.Equal(onSim.trace, c.trace) || !slices.Equal(onSim.results, c.want) {
				t.Fatalf("both clients: %v → %v, want %v → %v", onSim.trace, onSim.results, c.trace, c.want)
			}
		})
	}
}

// TestCoordinatorsAgree runs one script through the simulated coordinator
// and the real one, four masters each: create a table at span 2, two at
// span 4, drop the last, let one master die and its recovery finish (the
// simulator's replays, the real coordinator's flip at once), and readmit
// it. After each step the two tablet maps must be equal, server ids
// numbered by enlist order. The simulator then re-spreads tablets onto the
// readmitted master by migration, which the real masters cannot do; the
// last map is taken before that starts.
func TestCoordinatorsAgree(t *testing.T) {
	const dead = 1 // the master that dies, by enlist order
	fromSim := simCoordinatorMaps(t, dead)

	// Slower pings than bootCluster's, so that a loaded machine does not
	// miss three in a row from a live master and fail it over as well.
	coord, servers, _ := bootClusterPinging(t, 4, 100*time.Millisecond)
	var fromReal [][]wire.Tablet
	snap := func() {
		resp := coord.serve("", &wire.GetTabletMapReq{}).(*wire.GetTabletMapResp)
		fromReal = append(fromReal, byEnlistOrder(resp.Tablets, servers[0].ID(), servers[1].ID(), servers[2].ID(), servers[3].ID()))
	}
	for _, c := range []struct {
		name string
		span uint32
	}{{"a", 2}, {"b", 4}, {"gone", 4}} {
		if resp := coord.serve("", &wire.CreateTableReq{Name: c.name, ServerSpan: c.span}).(*wire.CreateTableResp); resp.Status != wire.StatusOK {
			t.Fatalf("create %s: %v", c.name, resp.Status)
		}
		snap()
	}
	if resp := coord.serve("", &wire.DropTableReq{Name: "gone"}).(*wire.DropTableResp); resp.Status != wire.StatusOK {
		t.Fatalf("drop: %v", resp.Status)
	}
	snap()

	addr := servers[dead].Addr()
	servers[dead].Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(coord.Servers()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("death not detected: %d servers", len(coord.Servers()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap()

	tr := &transport.TCP{RedialBase: 2 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	fresh := NewServer(tr, coord.Addr(), ServerConfig{EnlistBackoff: 10 * time.Millisecond})
	if err := fresh.Start(addr); err != nil {
		t.Fatalf("restart at %s: %v", addr, err)
	}
	t.Cleanup(fresh.Stop)
	snap()

	steps := []string{"create a", "create b", "create gone", "drop gone", "recover", "readmit"}
	for i, step := range steps {
		if !reflect.DeepEqual(fromReal[i], fromSim[i]) {
			t.Errorf("after %s:\n  real:      %v\n  simulated: %v", step, fromReal[i], fromSim[i])
		}
	}
	if recovered := fromReal[4]; len(recovered) != 2+4+2 { // the dead master's two tablets, in two partitions each
		t.Errorf("after the recovery, %d tablets: %v", len(recovered), recovered)
	}
}

// simCoordinatorMaps runs TestCoordinatorsAgree's script on a simulated
// four-server cluster and returns the tablet map after each step.
func simCoordinatorMaps(t *testing.T, dead int) [][]wire.Tablet {
	eng := sim.New(1)
	cluster := core.NewCluster(eng, core.DefaultProfile(), 4, 0)
	cluster.Start()
	ids := make([]int32, len(cluster.Servers))
	for i, s := range cluster.Servers {
		ids[i] = s.ID()
	}
	var maps [][]wire.Tablet
	snap := func() { maps = append(maps, byEnlistOrder(cluster.Coord.TabletMapDirect(), ids...)) }
	cl := cluster.NewClient()
	eng.Go("script", func(p *sim.Proc) {
		defer eng.Stop()
		cluster.Coord.CreateTableDirect("a", 2)
		snap()
		cluster.Coord.CreateTableDirect("b", 4)
		snap()
		cluster.Coord.CreateTableDirect("gone", 4)
		snap()
		if err := cl.DropTable(p, "gone"); err != nil {
			t.Errorf("drop: %v", err)
			return
		}
		snap()
		cluster.KillServer(dead)
		for len(cluster.Coord.Records()) == 0 {
			if p.Now() > sim.Time(sim.Minute) {
				t.Error("the recovery never finished")
				return
			}
			p.Sleep(100 * sim.Millisecond)
		}
		snap()
		cluster.RestartServer(dead)
		snap()
	})
	eng.Run()
	eng.Shutdown()
	return maps
}

// byEnlistOrder returns tablets with each master renamed to its index in
// ids, the servers in the order they enlisted.
func byEnlistOrder(tablets []wire.Tablet, ids ...int32) []wire.Tablet {
	out := slices.Clone(tablets)
	for i := range out {
		out[i].Master = int32(slices.Index(ids, out[i].Master))
	}
	return out
}
