package realnode

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/store"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
	"ramcloud/internal/ycsb"
)

// recordingTransport wraps a transport and notes, in issue order, the
// address every multi-read RPC is started toward.
type recordingTransport struct {
	transport.Interface

	mu     sync.Mutex
	issued []string
}

func (r *recordingTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := r.Interface.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: conn, st: conn.(transport.Starter), tr: r, addr: addr}, nil
}

func (r *recordingTransport) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.issued
	r.issued = nil
	return out
}

type recordingConn struct {
	transport.Conn
	st   transport.Starter
	tr   *recordingTransport
	addr string
}

func (c *recordingConn) Start(ctx context.Context, msg wire.Message) (transport.PendingCall, error) {
	if _, ok := msg.(*wire.MultiReadReq); ok {
		c.tr.mu.Lock()
		c.tr.issued = append(c.tr.issued, c.addr)
		c.tr.mu.Unlock()
	}
	return c.st.Start(ctx, msg)
}

// TestMultiReadIssuesInFirstContactOrder: the per-owner RPCs of a batch go
// out in the order the batch first touches each owner, on every call — the
// "no map-iteration order on the batch path" invariant, on the real path.
func TestMultiReadIssuesInFirstContactOrder(t *testing.T) {
	coord, _, boot := bootCluster(t, 3)
	table, err := boot.CreateTable("usertable", 3)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	rec := &recordingTransport{Interface: &transport.TCP{}}
	client := NewClient(rec, coord.Addr(), ClientConfig{RPCTimeout: time.Second})
	defer client.Close()
	client.Refresh()

	// Sequential YCSB keys share their hashes' high bits; strided ones
	// reach all three ranges.
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = ycsb.Key(i * 100)
	}
	var want []string
	for _, k := range keys {
		tab := store.Find(client.tabletSnapshot(), table, hashtable.HashKey(table, k))
		if tab == nil {
			t.Fatalf("no owner for %q", k)
		}
		if addr := client.addrs[tab.Master]; !slices.Contains(want, addr) {
			want = append(want, addr)
		}
	}
	if len(want) != 3 {
		t.Fatalf("the batch spans %d owners, want 3", len(want))
	}

	for call := 0; call < 20; call++ {
		for i, r := range client.MultiRead(table, keys) {
			if r.Err != ErrNotFound {
				t.Fatalf("call %d item %d: %v, want ErrNotFound from an empty table", call, i, r.Err)
			}
		}
		if got := rec.take(); !slices.Equal(got, want) {
			t.Fatalf("call %d issued its RPCs toward %v, want first-contact order %v", call, got, want)
		}
	}
}
