package realnode

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/transport"
	"ramcloud/internal/wire"
	"ramcloud/internal/ycsb"
)

// bootCluster starts an in-process coordinator plus n TCP masters on
// loopback ephemeral ports and returns them with a connected client.
func bootCluster(t *testing.T, n int) (*Coordinator, []*Server, *Client) {
	t.Helper()
	return bootClusterPinging(t, n, 20*time.Millisecond)
}

// bootClusterPinging is bootCluster with the coordinator probing each
// master every interval.
func bootClusterPinging(t *testing.T, n int, interval time.Duration) (*Coordinator, []*Server, *Client) {
	t.Helper()
	tr := &transport.TCP{RedialBase: 2 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	coord := NewCoordinator(tr, CoordConfig{
		PingInterval:  interval,
		MissThreshold: 3,
	})
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Stop)

	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = NewServer(tr, coord.Addr(), ServerConfig{EnlistBackoff: 10 * time.Millisecond})
		if err := servers[i].Start("127.0.0.1:0"); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Stop()
		}
	})

	client := NewClient(tr, coord.Addr(), ClientConfig{
		RPCTimeout: 500 * time.Millisecond,
		MaxRetries: 80,
		RetryBase:  2 * time.Millisecond,
		RetryCap:   50 * time.Millisecond,
	})
	t.Cleanup(client.Close)
	return coord, servers, client
}

func TestClusterBasicOps(t *testing.T) {
	_, servers, client := bootCluster(t, 3)
	table, err := client.CreateTable("usertable", 3)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}

	// Read-your-write across enough keys to hit all three ranges. FNV
	// key hashes of near-identical short keys share their high bits, so
	// sequential YCSB keys only cover the whole hash space once a few
	// thousand indices are in play (the experiments use >=8K records).
	for i := 0; i < 2000; i++ {
		key := ycsb.Key(i)
		val := []byte(fmt.Sprintf("value-%04d", i))
		if _, err := client.Put(table, key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, _, err := client.Get(table, key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("get %d: got %q, want %q", i, got, val)
		}
	}

	// Overwrite bumps the version.
	v1, err := client.Put(table, ycsb.Key(0), []byte("first"))
	if err != nil {
		t.Fatalf("put v1: %v", err)
	}
	v2, err := client.Put(table, ycsb.Key(0), []byte("second"))
	if err != nil {
		t.Fatalf("put v2: %v", err)
	}
	if v2 <= v1 {
		t.Fatalf("version did not advance: %d then %d", v1, v2)
	}
	got, ver, err := client.Get(table, ycsb.Key(0))
	if err != nil || string(got) != "second" || ver != v2 {
		t.Fatalf("read-your-write: %q v%d err=%v, want \"second\" v%d", got, ver, err, v2)
	}

	// Delete, then not-found.
	if err := client.Delete(table, ycsb.Key(0)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := client.Get(table, ycsb.Key(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	if err := client.Delete(table, ycsb.Key(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}

	// All three servers took writes (uniform keys, span 3).
	for i, s := range servers {
		if s.Objects() == 0 {
			t.Fatalf("server %d owns no objects: routing never reached it", i)
		}
	}
}

// TestClusterKillServer is the loopback failover check: a small YCSB-A
// mix runs against 3 masters, one master's listener is severed mid-run,
// and every operation must still terminate as success or an explicit
// NotFound (data lost with the dead, unreplicated master) — never a
// silent loss, a protocol error, or a hang.
func TestClusterKillServer(t *testing.T) {
	coord, servers, client := bootCluster(t, 3)
	table, err := client.CreateTable("usertable", 3)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}

	w := ycsb.WorkloadA(5000, 64) // >=5K records so all three hash ranges carry load
	for i := 0; i < w.RecordCount; i++ {
		if _, err := client.Put(table, ycsb.Key(i), Value(w, i)); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}

	const nWorkers = 4
	const opsPerWorker = 400
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		notFound int
		failures []string
	)
	for wkr := 0; wkr < nWorkers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + wkr)))
			ch := w.NewChooser()
			for n := 0; n < opsPerWorker; n++ {
				rec := ch.Next(rng)
				key := ycsb.Key(rec)
				var err error
				if rng.Float64() < w.ReadProp {
					_, _, err = client.Get(table, key)
				} else {
					_, err = client.Put(table, key, Value(w, rec))
				}
				mu.Lock()
				switch {
				case err == nil:
					done++
				case errors.Is(err, ErrNotFound):
					done++
					notFound++
				default:
					failures = append(failures, fmt.Sprintf("worker %d op %d: %v", wkr, n, err))
				}
				mu.Unlock()
			}
		}(wkr)
	}

	// Sever one master mid-run. Its tablets reassign to the survivors
	// once the coordinator's pings miss the threshold.
	time.Sleep(50 * time.Millisecond)
	servers[1].Stop()

	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d ops failed; first: %s", len(failures), failures[0])
	}
	if done != nWorkers*opsPerWorker {
		t.Fatalf("completed %d/%d ops", done, nWorkers*opsPerWorker)
	}
	t.Logf("ops=%d notFound=%d (lost with the killed master) refreshes=%d retries=%d",
		done, notFound, client.Stats().Refreshes.Load(), client.Stats().Retries.Load())

	// The coordinator observed the death.
	deadline := time.Now().Add(2 * time.Second)
	for len(coord.Servers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still reports %d servers", len(coord.Servers()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Post-failover, writes and read-your-write work everywhere again.
	for i := 0; i < 100; i++ {
		key := ycsb.Key(i)
		val := []byte(fmt.Sprintf("after-failover-%04d", i))
		if _, err := client.Put(table, key, val); err != nil {
			t.Fatalf("post-failover put %d: %v", i, err)
		}
		got, _, err := client.Get(table, key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("post-failover get %d: %q err=%v", i, got, err)
		}
	}
}

// TestClusterServerRejoin restarts a killed master (new process, same
// enlist path) and checks it re-enters service for new tables.
func TestClusterServerRejoin(t *testing.T) {
	coord, servers, client := bootCluster(t, 2)
	if _, err := client.CreateTable("t1", 2); err != nil {
		t.Fatalf("create: %v", err)
	}
	servers[0].Stop()
	deadline := time.Now().Add(2 * time.Second)
	for len(coord.Servers()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("death not detected: %d servers", len(coord.Servers()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	tr := &transport.TCP{RedialBase: 2 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	fresh := NewServer(tr, coord.Addr(), ServerConfig{EnlistBackoff: 10 * time.Millisecond})
	if err := fresh.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	t.Cleanup(fresh.Stop)
	deadline = time.Now().Add(2 * time.Second)
	for len(coord.Servers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("rejoin not observed: %d servers", len(coord.Servers()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	table, err := client.CreateTable("t2", 2)
	if err != nil {
		t.Fatalf("create t2: %v", err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := client.Put(table, ycsb.Key(i), []byte("x")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if fresh.Objects() == 0 {
		t.Fatal("rejoined server serves no objects")
	}
}

// TestMultiOpAfterMasterRestart: a master dies, its tablets move to the
// survivor, and a fresh process enlists at the dead one's address, so it
// gets the same id and owns nothing. A client still holding the old map
// sends half of every batch there and is answered WrongServer; a multi-op
// must then refresh the map and re-route, as a single op does, instead of
// retrying the same stale owner until its budget runs out.
func TestMultiOpAfterMasterRestart(t *testing.T) {
	coord, servers, client := bootCluster(t, 2)
	table, err := client.CreateTable("usertable", 2)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	const records = 2000
	keys := make([][]byte, records)
	values := make([][]byte, records)
	for i := range keys {
		keys[i] = ycsb.Key(i)
		values[i] = []byte(fmt.Sprintf("value-%04d", i))
	}
	for i, r := range client.MultiWrite(table, keys, values) {
		if r.Err != nil {
			t.Fatalf("load %d: %v", i, r.Err)
		}
	}

	addr, id := servers[0].Addr(), servers[0].ID()
	servers[0].Stop()
	deadline := time.Now().Add(2 * time.Second)
	for len(coord.Servers()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("death not detected: %d servers", len(coord.Servers()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr := &transport.TCP{RedialBase: 2 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	fresh := NewServer(tr, coord.Addr(), ServerConfig{EnlistBackoff: 10 * time.Millisecond})
	if err := fresh.Start(addr); err != nil {
		t.Fatalf("restart at %s: %v", addr, err)
	}
	t.Cleanup(fresh.Stop)
	if fresh.ID() != id {
		t.Fatalf("the restarted master enlisted as %d, want its old id %d", fresh.ID(), id)
	}

	refreshes := client.Stats().Refreshes.Load()
	start := time.Now()
	for i, r := range client.MultiRead(table, keys) {
		if r.Err != nil && !errors.Is(r.Err, ErrNotFound) {
			t.Fatalf("multi-read %d: %v", i, r.Err)
		}
	}
	for i, r := range client.MultiWrite(table, keys, values) {
		if r.Err != nil {
			t.Fatalf("multi-write %d: %v", i, r.Err)
		}
	}
	took := time.Since(start)
	if client.Stats().Refreshes.Load() == refreshes {
		t.Fatal("the client never refreshed its map")
	}
	if took > time.Second {
		t.Fatalf("both batches took %v", took)
	}
	if fresh.Objects() != 0 {
		t.Fatalf("the restarted master, which owns nothing, holds %d objects", fresh.Objects())
	}
	t.Logf("%v, %d refreshes", took, client.Stats().Refreshes.Load()-refreshes)
}

// TestClusterFastRestartSameAddress: a master stops and a fresh process
// enlists at its address before the detector has missed enough pings to
// declare it dead, so it keeps its id and the map still routes the old
// process's ranges to it. The coordinator must tell the new process what
// it owns; otherwise every key there is answered WrongServer until the
// client gives up. What the old process held is gone and reads not-found.
func TestClusterFastRestartSameAddress(t *testing.T) {
	coord, servers, client := bootClusterPinging(t, 2, 2*time.Second)
	table, err := client.CreateTable("usertable", 2)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	const records = 2000
	for i := 0; i < records; i++ {
		if _, err := client.Put(table, ycsb.Key(i), []byte("old")); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}

	addr, id := servers[0].Addr(), servers[0].ID()
	servers[0].Stop()
	tr := &transport.TCP{RedialBase: 2 * time.Millisecond, RedialCap: 50 * time.Millisecond}
	fresh := NewServer(tr, coord.Addr(), ServerConfig{EnlistBackoff: 10 * time.Millisecond})
	if err := fresh.Start(addr); err != nil {
		t.Fatalf("restart at %s: %v", addr, err)
	}
	t.Cleanup(fresh.Stop)
	if fresh.ID() != id || len(coord.Servers()) != 2 {
		t.Fatalf("restarted as %d with %d servers alive; want the old id %d and no death declared", fresh.ID(), len(coord.Servers()), id)
	}

	lost := 0
	for i := 0; i < records; i++ {
		_, _, err := client.Get(table, ycsb.Key(i))
		switch {
		case errors.Is(err, ErrNotFound):
			lost++
		case err != nil:
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if lost == 0 || lost == records {
		t.Fatalf("%d of %d keys lost; want those of the stopped master only", lost, records)
	}
	for i := 0; i < 200; i++ {
		if _, err := client.Put(table, ycsb.Key(i), []byte("new")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if fresh.Objects() == 0 {
		t.Fatal("the restarted master took no writes")
	}
}

// TestRunYCSB exercises the exported load driver end to end.
func TestRunYCSB(t *testing.T) {
	_, _, client := bootCluster(t, 3)
	table, err := client.CreateTable("usertable", 3)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := ycsb.WorkloadA(200, 32)
	res, err := RunYCSB(client, table, w, LoadOptions{Clients: 4, Ops: 1000, Seed: 42, Load: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d protocol errors", res.Errors)
	}
	if res.Ops != 1000 {
		t.Fatalf("completed %d/1000", res.Ops)
	}
	if res.NotFound != 0 {
		t.Fatalf("%d not-found after full load phase", res.NotFound)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible latencies p50=%v p99=%v", res.P50, res.P99)
	}
}

// TestRunYCSBCountsWrongBytes preloads every record with bytes that are
// not its Value (of the right length, one byte flipped) and reads them
// back through each load loop: every read must count as an error. After a
// correct load the same reads count none.
func TestRunYCSBCountsWrongBytes(t *testing.T) {
	_, _, client := bootCluster(t, 2)
	table, err := client.CreateTable("usertable", 2)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := ycsb.WorkloadC(50, 32)
	for rec := 0; rec < w.RecordCount; rec++ {
		v := Value(w, rec)
		v[rec%len(v)] ^= 0xff
		if _, err := client.Put(table, ycsb.Key(rec), v); err != nil {
			t.Fatalf("preload %d: %v", rec, err)
		}
	}
	loops := []LoadOptions{{}, {Pipeline: 4}, {Batch: 8}} // sync, pipelined, batched
	for _, load := range []bool{false, true} {
		for _, opts := range loops {
			opts.Clients, opts.Ops, opts.Seed, opts.Load = 2, 200, 7, load
			res, err := RunYCSB(client, table, w, opts)
			if err != nil {
				t.Fatalf("run %+v: %v", opts, err)
			}
			want := 0
			if !load {
				want = opts.Ops // the preload wrote no record's Value
			}
			if res.Errors != want || res.Ops != opts.Ops-want {
				t.Fatalf("run %+v: %d errors, %d ops; want %d errors", opts, res.Errors, res.Ops, want)
			}
		}
	}
}

// TestClusterReadDuringOverwrite: a read takes the log entry under the
// master mutex and copies the value after releasing it, while writers
// keep replacing the same key. Every Get and MultiRead must return one of
// the written values whole; under -race this is also the check that
// nothing writes the bytes a reader is copying.
func TestClusterReadDuringOverwrite(t *testing.T) {
	_, _, client := bootCluster(t, 1)
	table, err := client.CreateTable("usertable", 1)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	key := []byte("contended")
	// Value v is 1 KiB of byte v, so a torn or foreign value is visible
	// in the bytes themselves.
	value := func(v byte) []byte { return bytes.Repeat([]byte{v}, 1024) }
	whole := func(b []byte) error {
		if len(b) == 1024 && bytes.Count(b, b[:1]) == 1024 {
			return nil
		}
		return fmt.Errorf("read %d bytes that are no value ever written", len(b))
	}
	if _, err := client.Put(table, key, value(0)); err != nil {
		t.Fatalf("first put: %v", err)
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				if _, err := client.Put(table, key, value(byte(2*i+w))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	reader := func(read func() error) {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := read(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	readers.Add(3)
	for r := 0; r < 2; r++ {
		go reader(func() error {
			got, _, err := client.Get(table, key)
			if err != nil {
				return fmt.Errorf("get: %w", err)
			}
			return whole(got)
		})
	}
	go reader(func() error {
		for _, r := range client.MultiRead(table, [][]byte{key, key, key, key}) {
			if r.Err != nil {
				return fmt.Errorf("multiread: %w", r.Err)
			}
			if err := whole(r.Value); err != nil {
				return err
			}
		}
		return nil
	})
	writers.Wait()
	close(done)
	readers.Wait()
}

// TestClusterPutsSurviveFrameReuse: a written key and value reach the
// master as views of a pooled frame buffer and are copied once, into the
// log. 500 distinct values over one connection recycle those buffers
// hundreds of times; every value must read back byte for byte.
func TestClusterPutsSurviveFrameReuse(t *testing.T) {
	_, _, client := bootCluster(t, 1)
	table, err := client.CreateTable("usertable", 1)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	const records = 500
	value := func(i int) []byte {
		v := bytes.Repeat([]byte{byte(i)}, 1024)
		copy(v, fmt.Sprintf("value-%04d", i))
		return v
	}
	for i := 0; i < records; i++ {
		if _, err := client.Put(table, ycsb.Key(i), value(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < records; i++ {
		got, _, err := client.Get(table, ycsb.Key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, value(i)) {
			t.Fatalf("record %d read back as %.16q…, want %.16q…", i, got, value(i))
		}
	}
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = ycsb.Key(i)
	}
	for i, r := range client.MultiRead(table, keys) {
		if r.Err != nil || !bytes.Equal(r.Value, value(i)) {
			t.Fatalf("multi-read %d: err %v, value %.16q…", i, r.Err, r.Value)
		}
	}
}

// backupCall makes one backup-protocol call over conn.
func backupCall(conn transport.Conn, req wire.Message) (wire.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return conn.Call(ctx, req)
}

// replicateRecords opens the master's segment on conn's backup and
// replicates record(i), i in [0, n), one object per request, requiring
// every ack to be StatusOK.
func replicateRecords(conn transport.Conn, master int32, segment uint64, n int, record func(int) wire.Object) error {
	if resp, err := backupCall(conn, &wire.OpenSegmentReq{Master: master, Segment: segment}); err != nil || resp.(*wire.OpenSegmentResp).Status != wire.StatusOK {
		return fmt.Errorf("open segment %d: %v %+v", segment, err, resp)
	}
	for i := 0; i < n; i++ {
		resp, err := backupCall(conn, &wire.ReplicateReq{Master: master, Segment: segment, Objects: []wire.Object{record(i)}})
		if err != nil || resp.(*wire.ReplicateResp).Status != wire.StatusOK {
			return fmt.Errorf("replicate %d to segment %d: %v %+v", i, segment, err, resp)
		}
	}
	return nil
}

// recoverAll fetches the whole of a replica through conn's backup and
// checks it holds record(i), i in [0, n), in append order.
func recoverAll(conn transport.Conn, master int32, segment uint64, n int, record func(int) wire.Object) (*wire.GetRecoveryDataResp, error) {
	resp, err := backupCall(conn, &wire.GetRecoveryDataReq{Master: master, Segment: segment, LastHash: ^uint64(0)})
	if err != nil {
		return nil, err
	}
	r := resp.(*wire.GetRecoveryDataResp)
	if r.Status != wire.StatusOK || len(r.Objects) != n {
		return nil, fmt.Errorf("recovery data of segment %d: status %v, %d objects, want %d", segment, r.Status, len(r.Objects), n)
	}
	return r, sameObjects(r.Objects, record)
}

func sameObjects(objs []wire.Object, record func(int) wire.Object) error {
	for i, got := range objs {
		want := record(i)
		if !bytes.Equal(got.Key, want.Key) || got.KeyHash != want.KeyHash || got.Version != want.Version ||
			got.ValueLen != want.ValueLen || !bytes.Equal(got.Value, want.Value) {
			return fmt.Errorf("object %d is key %q version %d value %.16q…, want key %q version %d value %.16q…",
				i, got.Key, got.Version, got.Value, want.Key, want.Version, want.Value)
		}
	}
	return nil
}

// backupRecord is object i of a replica, a distinct 1 KiB value that
// names it.
func backupRecord(fill int) func(int) wire.Object {
	return func(i int) wire.Object {
		key := ycsb.Key(i)
		v := bytes.Repeat([]byte{byte(i + fill)}, 1024)
		copy(v, fmt.Sprintf("value-%d-%04d", fill, i))
		return wire.Object{Table: 1, KeyHash: hashtable.HashKey(1, key), Key: key, ValueLen: 1024, Value: v, Version: uint64(i + 1)}
	}
}

// TestClusterBackupSurvivesFrameReuse: replicated keys and values reach
// the backup as views of a pooled frame buffer and are copied once, into
// the replica. 500 distinct values over one connection recycle those
// buffers hundreds of times; the recovery fetch must return every one byte
// for byte, and what it returned must stay intact after the replicas are
// freed and a new segment fills the backup.
func TestClusterBackupSurvivesFrameReuse(t *testing.T) {
	_, servers, _ := bootCluster(t, 1)
	conn, err := (&transport.TCP{}).Dial(servers[0].Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	const master, records = 42, 500
	first, second := backupRecord(0), backupRecord(1)
	if err := replicateRecords(conn, master, 1, records, first); err != nil {
		t.Fatal(err)
	}
	if resp, err := backupCall(conn, &wire.CloseSegmentReq{Master: master, Segment: 1}); err != nil || resp.(*wire.CloseSegmentResp).Status != wire.StatusOK {
		t.Fatalf("close: %v %+v", err, resp)
	}
	got, err := recoverAll(conn, master, 1, records, first)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := backupCall(conn, &wire.FreeReplicasReq{Master: master}); err != nil || resp.(*wire.FreeReplicasResp).Status != wire.StatusOK {
		t.Fatalf("free: %v %+v", err, resp)
	}
	if err := replicateRecords(conn, master, 2, records, second); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverAll(conn, master, 2, records, second); err != nil {
		t.Fatal(err)
	}
	if err := sameObjects(got.Objects, first); err != nil {
		t.Fatalf("after the free and a second segment: %v", err)
	}
}

// TestClusterBackupUnderLoad: one connection replicates to segment A while
// another fetches sealed segment B and the inventory, and YCSB-A runs
// against the same server throughout. Every ack is StatusOK and every
// fetch whole; under -race this is also the check that backup traffic,
// whose lock is its own, shares nothing unguarded with the master's.
func TestClusterBackupUnderLoad(t *testing.T) {
	_, servers, client := bootCluster(t, 1)
	table, err := client.CreateTable("usertable", 1)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	dial := func() transport.Conn {
		conn, err := (&transport.TCP{}).Dial(servers[0].Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	writer, reader := dial(), dial()
	const master = 42
	a, b := backupRecord(0), backupRecord(1)
	if err := replicateRecords(reader, master, 2, 50, b); err != nil {
		t.Fatal(err)
	}
	if resp, err := backupCall(reader, &wire.CloseSegmentReq{Master: master, Segment: 2}); err != nil || resp.(*wire.CloseSegmentResp).Status != wire.StatusOK {
		t.Fatalf("close: %v %+v", err, resp)
	}

	done := make(chan struct{})
	var load, backup sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		for round := int64(0); ; round++ {
			select {
			case <-done:
				return
			default:
			}
			res, err := RunYCSB(client, table, ycsb.WorkloadA(200, 100), LoadOptions{Clients: 2, Ops: 200, Seed: round, Load: round == 0})
			if err != nil || res.Errors != 0 {
				t.Errorf("ycsb round %d: %v, %d errors", round, err, res.Errors)
				return
			}
		}
	}()
	backup.Add(2)
	go func() {
		defer backup.Done()
		if err := replicateRecords(writer, master, 1, 300, a); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer backup.Done()
		for i := 0; i < 100; i++ {
			if _, err := recoverAll(reader, master, 2, 50, b); err != nil {
				t.Error(err)
				return
			}
			resp, err := backupCall(reader, &wire.SegmentInventoryReq{Master: master})
			if err != nil || resp.(*wire.SegmentInventoryResp).Status != wire.StatusOK {
				t.Errorf("inventory: %v %+v", err, resp)
				return
			}
		}
	}()
	backup.Wait()
	close(done)
	load.Wait()
	if _, err := recoverAll(reader, master, 1, 300, a); err != nil {
		t.Fatal(err)
	}
}
