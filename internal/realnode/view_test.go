package realnode

import (
	"bytes"
	"fmt"
	"testing"

	"ramcloud/internal/hashtable"
	"ramcloud/internal/wire"
)

// TestReadServesAViewOfTheLog: a master answers a read with its log's own
// bytes, not a copy, and those bytes stay the value that was read through
// later writes, an overwrite of the key and a roll. Over TCP the value a
// client gets is its own: scribbling on it changes nothing the next Get
// sees.
func TestReadServesAViewOfTheLog(t *testing.T) {
	s := NewServer(nil, "", ServerConfig{}) // never started: the handler is called directly
	s.serve("", &wire.AssignTabletsReq{Tablets: []wire.Tablet{{Table: 1, StartHash: 0, EndHash: ^uint64(0)}}})
	key := []byte("viewed")
	value := bytes.Repeat([]byte("log!"), 256)
	write := func(key, value []byte) {
		if resp := s.serve("", &wire.WriteReq{Table: 1, Key: key, ValueLen: uint32(len(value)), Value: value}).(*wire.WriteResp); resp.Status != wire.StatusOK {
			t.Fatalf("write %q: %v", key, resp.Status)
		}
	}
	write(key, value)
	read := s.serve("", &wire.ReadReq{Table: 1, Key: key}).(*wire.ReadResp)
	multi := s.serve("", &wire.MultiReadReq{Items: []wire.MultiReadItem{{Table: 1, Key: key}}}).(*wire.MultiReadResp)
	s.mu.Lock()
	e := s.st.Read(1, key, hashtable.HashKey(1, key))
	s.mu.Unlock()
	if e.Status != wire.StatusOK || !bytes.Equal(e.Value, value) {
		t.Fatalf("the store holds %q (%v)", e.Value, e.Status)
	}
	if &read.Value[0] != &e.Value[0] || &multi.Items[0].Value[0] != &e.Value[0] {
		t.Fatal("a read's value is a copy, not a view of the log entry")
	}

	other := bytes.Repeat([]byte{0xEE}, len(value))
	for i := 0; i < 10_000; i++ {
		if i%100 == 0 {
			write(key, other)
		} else {
			write([]byte(fmt.Sprintf("filler%05d", i)), other)
		}
	}
	s.mu.Lock()
	s.st.Log.Roll()
	s.mu.Unlock()
	if !bytes.Equal(read.Value, value) || !bytes.Equal(multi.Items[0].Value, value) {
		t.Fatal("a served view changed under later writes and a roll")
	}

	_, _, client := bootCluster(t, 1)
	table, err := client.CreateTable("views", 1)
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if _, err := client.Put(table, key, value); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, _, err := client.Get(table, key)
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("get: %q, %v", got, err)
	}
	res := client.MultiRead(table, [][]byte{key})
	if res[0].Err != nil || !bytes.Equal(res[0].Value, value) {
		t.Fatalf("multi-read: %q, %v", res[0].Value, res[0].Err)
	}
	for i := range got {
		got[i] = 'x'
	}
	for i := range res[0].Value {
		res[0].Value[i] = 'y'
	}
	again, _, err := client.Get(table, key)
	if err != nil || !bytes.Equal(again, value) {
		t.Fatalf("after the client overwrote the values it was given, get: %q, %v", again, err)
	}
}
