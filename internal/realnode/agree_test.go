package realnode

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/machine"
	"ramcloud/internal/rpc"
	"ramcloud/internal/server"
	"ramcloud/internal/sim"
	"ramcloud/internal/simdisk"
	"ramcloud/internal/simnet"
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
	}

	eng := sim.New(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	coord := rpc.NewEndpoint(eng, net, simnet.NodeID(-1)) // swallows the master's wills
	cfg := server.DefaultConfig()
	cfg.ReplicationFactor = 0
	simMaster := server.New(eng, machine.NewNode(eng, 1, machine.Grid5000Nancy()), net,
		simdisk.New(eng, simdisk.DefaultConfig()), coord.Node(), cfg)
	simMaster.SetPeers([]simnet.NodeID{simMaster.Addr()})
	simMaster.AssignTablet(owned)
	simMaster.Start()
	client := rpc.NewEndpoint(eng, net, simnet.NodeID(999))
	fromSim := make([]wire.Message, 0, len(script))
	eng.Go("client", func(p *sim.Proc) {
		for _, req := range script {
			fromSim = append(fromSim, client.Call(p, simMaster.Addr(), req))
		}
		eng.Stop()
	})
	eng.Run()
	eng.Shutdown()

	realMaster := NewServer(nil, "", ServerConfig{}) // never started: the handler is called directly
	realMaster.serve("", &wire.AssignTabletsReq{Tablets: []wire.Tablet{owned}})
	for i, req := range script {
		got := realMaster.serve("", req)
		if !reflect.DeepEqual(got, fromSim[i]) {
			t.Errorf("step %d, %T:\n  real master: %+v\n  simulated:   %+v", i, req, got, fromSim[i])
		}
	}
}
