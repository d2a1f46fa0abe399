package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// allMessages returns one representative of every message type with
// non-trivial field values.
func allMessages() []Message {
	obj := Object{Table: 3, KeyHash: 0xdeadbeef, Key: []byte("user42"),
		ValueLen: 5, Value: []byte("hello"), Version: 9, Tombstone: false}
	tomb := Object{Table: 3, KeyHash: 1, Key: []byte("k"), Version: 2, Tombstone: true}
	tab := Tablet{Table: 1, StartHash: 0, EndHash: ^uint64(0), Master: 4, Recovering: true}
	return []Message{
		&ReadReq{Table: 1, Key: []byte("user1")},
		&ReadResp{Status: StatusOK, Version: 3, ValueLen: 4, Value: []byte("data")},
		&WriteReq{Table: 2, Key: []byte("k"), ValueLen: 3, Value: []byte("abc")},
		&WriteResp{Status: StatusOK, Version: 11},
		&DeleteReq{Table: 1, Key: []byte("gone")},
		&DeleteResp{Status: StatusUnknownKey, Version: 0},
		&CreateTableReq{Name: "usertable", ServerSpan: 10},
		&CreateTableResp{Status: StatusOK, Table: 7},
		&DropTableReq{Name: "usertable"},
		&DropTableResp{Status: StatusOK},
		&GetTabletMapReq{},
		&GetTabletMapResp{Status: StatusOK, Tablets: []Tablet{tab, {Table: 2, Master: 1}}},
		&EnlistReq{Node: 5, MemoryBytes: 10 << 30, HasBackup: true},
		&EnlistResp{Status: StatusOK, ServerID: 5},
		&PingReq{Seq: 99},
		&PingResp{Seq: 99},
		&SetWillReq{Master: 2, Partitions: []WillPartition{{0, 100}, {101, 200}}},
		&SetWillResp{Status: StatusOK},
		&OpenSegmentReq{Master: 1, Segment: 42},
		&OpenSegmentResp{Status: StatusOK},
		&ReplicateReq{Master: 1, Segment: 42, Objects: []Object{obj, tomb}},
		&ReplicateResp{Status: StatusOK},
		&CloseSegmentReq{Master: 1, Segment: 42, SegmentBytes: 8 << 20},
		&CloseSegmentResp{Status: StatusOK},
		&FreeReplicasReq{Master: 3},
		&FreeReplicasResp{Status: StatusOK},
		&SegmentInventoryReq{Master: 3},
		&SegmentInventoryResp{Status: StatusOK, Segments: []SegmentInfo{{1, 100}, {2, 200}}},
		&GetRecoveryDataReq{Master: 3, Segment: 2, FirstHash: 10, LastHash: 20},
		&GetRecoveryDataResp{Status: StatusOK, SegmentBytes: 8 << 20, Objects: []Object{obj}},
		&RecoverReq{Crashed: 3, FirstHash: 0, LastHash: 99, Tablets: []Tablet{tab},
			Segments: []SegmentLoc{{Segment: 1, Backup: 2, Bytes: 100}}},
		&RecoverResp{Status: StatusOK},
		&RecoveryDoneReq{Crashed: 3, FirstHash: 0, Ok: true},
		&RecoveryDoneResp{Status: StatusOK},
		&RDMAWriteReq{Master: 1, Segment: 5, Objects: []Object{obj}},
		&RDMAWriteResp{Status: StatusOK},
		&MultiReadReq{Items: []MultiReadItem{
			{Table: 1, Key: []byte("user1")}, {Table: 2, Key: []byte("user2")}}},
		&MultiReadResp{Status: StatusOK, Items: []MultiReadResult{
			{Status: StatusOK, Version: 3, ValueLen: 4, Value: []byte("data")},
			{Status: StatusUnknownKey},
			{Status: StatusWrongServer}}},
		&MultiWriteReq{Items: []MultiWriteItem{
			{Table: 1, Key: []byte("k1"), ValueLen: 3, Value: []byte("abc")},
			{Table: 1, Key: []byte("k2")}}},
		&MultiWriteResp{Status: StatusOK, Items: []MultiWriteResult{
			{Status: StatusOK, Version: 7}, {Status: StatusWrongServer}}},
		&MigrateTabletReq{Table: 1, FirstHash: 100, LastHash: 200, Dst: 4},
		&MigrateTabletResp{Status: StatusOK, Moved: 321},
		&TakeTabletReq{Table: 1, FirstHash: 100, LastHash: 200, Objects: []Object{obj, tomb}},
		&TakeTabletResp{Status: StatusOK},
		&EnlistAddrReq{Addr: "127.0.0.1:7071", MemoryBytes: 10 << 30},
		&EnlistAddrResp{Status: StatusOK, ServerID: 3},
		&ServerListReq{},
		&ServerListResp{Status: StatusOK, Servers: []ServerAddr{
			{ID: 1, Addr: "127.0.0.1:7071"}, {ID: 2, Addr: "127.0.0.1:7072"}}},
		&AssignTabletsReq{Tablets: []Tablet{tab, {Table: 2, Master: 1}}},
		&AssignTabletsResp{Status: StatusOK},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMessages() {
		msg := msg
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			env := Envelope{RPCID: 12345, Msg: msg}
			b, err := Marshal(env)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.RPCID != 12345 {
				t.Fatalf("rpc id = %d", got.RPCID)
			}
			if !reflect.DeepEqual(normalize(got.Msg), normalize(msg)) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got.Msg, msg)
			}
		})
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(msg any) string {
	return strings.ReplaceAll(fmt.Sprintf("%#v", msg), "[]uint8{}", "[]uint8(nil)")
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	for _, msg := range allMessages() {
		b, err := Marshal(Envelope{RPCID: 1, Msg: msg})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if got, want := msg.WireSize(), len(b); got != want {
			t.Errorf("%T: WireSize = %d, Marshal produced %d bytes", msg, got, want)
		}
	}
}

// TestOpCoversAllMessages asserts that allMessages carries exactly one
// representative of every declared opcode, so the round-trip and size
// tests above cannot silently drop a message type.
func TestOpCoversAllMessages(t *testing.T) {
	seen := map[Op]bool{}
	for _, msg := range allMessages() {
		op := msg.Op()
		if op == 0 {
			t.Fatalf("(%T).Op() = 0", msg)
		}
		if seen[op] {
			t.Fatalf("duplicate op %d for %T", op, msg)
		}
		seen[op] = true
	}
	for op := OpReadReq; op <= OpAssignTabletsResp; op++ {
		if !seen[op] {
			t.Errorf("opcode %d has no representative in allMessages", op)
		}
	}
}

func TestVirtualValueSizeCounted(t *testing.T) {
	real := Envelope{Msg: &WriteReq{Table: 1, Key: []byte("k"), ValueLen: 1024, Value: make([]byte, 1024)}}
	virtual := Envelope{Msg: &WriteReq{Table: 1, Key: []byte("k"), ValueLen: 1024, Value: nil}}
	if real.Msg.WireSize() != virtual.Msg.WireSize() {
		t.Fatalf("virtual size %d != real size %d", virtual.Msg.WireSize(), real.Msg.WireSize())
	}
}

func TestVirtualValueMarshalFails(t *testing.T) {
	_, err := Marshal(Envelope{Msg: &WriteReq{Table: 1, Key: []byte("k"), ValueLen: 10}})
	if !errors.Is(err, ErrVirtualValue) {
		t.Fatalf("err = %v, want ErrVirtualValue", err)
	}
	_, err = Marshal(Envelope{Msg: &ReplicateReq{Objects: []Object{{ValueLen: 5}}}})
	if !errors.Is(err, ErrVirtualValue) {
		t.Fatalf("err = %v, want ErrVirtualValue", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	b, err := Marshal(Envelope{RPCID: 7, Msg: &WriteReq{Table: 1, Key: []byte("key"), ValueLen: 3, Value: []byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(b))
		}
	}
}

func TestUnmarshalUnknownOp(t *testing.T) {
	b := []byte{255, 0, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0}
	if _, err := Unmarshal(b); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v, want ErrUnknownOp", err)
	}
}

func TestUnmarshalLengthMismatch(t *testing.T) {
	b, _ := Marshal(Envelope{Msg: &PingReq{Seq: 1}})
	b = append(b, 0) // extra trailing byte
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestMarshalNilMessage(t *testing.T) {
	if _, err := Marshal(Envelope{}); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusError; s++ {
		if strings.HasPrefix(s.String(), "Status(") {
			t.Errorf("status %d has no name", s)
		}
	}
	if Status(200).String() != "Status(200)" {
		t.Fatalf("unknown status = %q", Status(200).String())
	}
}

func TestQuickWriteReqRoundTrip(t *testing.T) {
	f := func(table uint64, key []byte, value []byte, rpc uint64) bool {
		env := Envelope{RPCID: rpc, Msg: &WriteReq{
			Table: table, Key: key, ValueLen: uint32(len(value)), Value: value}}
		b, err := Marshal(env)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil || got.RPCID != rpc {
			return false
		}
		m := got.Msg.(*WriteReq)
		return m.Table == table && bytes.Equal(m.Key, key) && bytes.Equal(m.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReplicateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		var objs []Object
		for i := 0; i < rng.Intn(5); i++ {
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			key := make([]byte, 1+rng.Intn(16))
			rng.Read(key)
			objs = append(objs, Object{
				Table:     rng.Uint64(),
				KeyHash:   rng.Uint64(),
				Key:       key,
				ValueLen:  uint32(len(val)),
				Value:     val,
				Version:   rng.Uint64(),
				Tombstone: rng.Intn(2) == 0,
			})
		}
		env := Envelope{RPCID: rng.Uint64(), Msg: &ReplicateReq{Master: 1, Segment: 2, Objects: objs}}
		b, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		m := got.Msg.(*ReplicateReq)
		if len(m.Objects) != len(objs) {
			t.Fatalf("objects = %d, want %d", len(m.Objects), len(objs))
		}
		for i := range objs {
			a, b := objs[i], m.Objects[i]
			if a.Table != b.Table || a.KeyHash != b.KeyHash || !bytes.Equal(a.Key, b.Key) ||
				!bytes.Equal(a.Value, b.Value) || a.Version != b.Version || a.Tombstone != b.Tombstone {
				t.Fatalf("object %d mismatch: %+v vs %+v", i, a, b)
			}
		}
	}
}

// TestMultiOpVirtualValues checks the multi-op messages inherit the
// virtual-payload contract: declared lengths count toward WireSize whether
// or not bytes are carried, and marshaling a virtual value fails.
func TestMultiOpVirtualValues(t *testing.T) {
	real := &MultiWriteReq{Items: []MultiWriteItem{
		{Table: 1, Key: []byte("k"), ValueLen: 1024, Value: make([]byte, 1024)}}}
	virtual := &MultiWriteReq{Items: []MultiWriteItem{
		{Table: 1, Key: []byte("k"), ValueLen: 1024, Value: nil}}}
	if real.WireSize() != virtual.WireSize() {
		t.Fatalf("virtual size %d != real size %d", virtual.WireSize(), real.WireSize())
	}
	if _, err := Marshal(Envelope{Msg: virtual}); !errors.Is(err, ErrVirtualValue) {
		t.Fatalf("MultiWriteReq marshal err = %v, want ErrVirtualValue", err)
	}

	realResp := &MultiReadResp{Status: StatusOK, Items: []MultiReadResult{
		{Status: StatusOK, ValueLen: 512, Value: make([]byte, 512)}}}
	virtualResp := &MultiReadResp{Status: StatusOK, Items: []MultiReadResult{
		{Status: StatusOK, ValueLen: 512, Value: nil}}}
	if realResp.WireSize() != virtualResp.WireSize() {
		t.Fatalf("virtual resp size %d != real %d", virtualResp.WireSize(), realResp.WireSize())
	}
	if _, err := Marshal(Envelope{Msg: virtualResp}); !errors.Is(err, ErrVirtualValue) {
		t.Fatalf("MultiReadResp marshal err = %v, want ErrVirtualValue", err)
	}
}

// TestMultiOpPerItemStatuses round-trips a mixed batch of per-item codes
// (the WrongServer-mid-batch case the client's retry loop depends on).
func TestMultiOpPerItemStatuses(t *testing.T) {
	resp := &MultiReadResp{Status: StatusOK, Items: []MultiReadResult{
		{Status: StatusOK, Version: 1, ValueLen: 2, Value: []byte("ab")},
		{Status: StatusWrongServer},
		{Status: StatusUnknownKey},
		{Status: StatusOK, Version: 4},
	}}
	b, err := Marshal(Envelope{RPCID: 9, Msg: resp})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	m := got.Msg.(*MultiReadResp)
	if len(m.Items) != 4 {
		t.Fatalf("items = %d", len(m.Items))
	}
	want := []Status{StatusOK, StatusWrongServer, StatusUnknownKey, StatusOK}
	for i, st := range want {
		if m.Items[i].Status != st {
			t.Errorf("item %d status = %v, want %v", i, m.Items[i].Status, st)
		}
	}
	if m.Items[0].Version != 1 || string(m.Items[0].Value) != "ab" {
		t.Fatalf("item 0 = %+v", m.Items[0])
	}

	wresp := &MultiWriteResp{Status: StatusOK, Items: []MultiWriteResult{
		{Status: StatusOK, Version: 10}, {Status: StatusError}, {Status: StatusOK, Version: 12},
	}}
	b, err = Marshal(Envelope{RPCID: 10, Msg: wresp})
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	wm := got.Msg.(*MultiWriteResp)
	if len(wm.Items) != 3 || wm.Items[1].Status != StatusError || wm.Items[2].Version != 12 {
		t.Fatalf("write items = %+v", wm.Items)
	}
}

func TestQuickMultiReadReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		var items []MultiReadItem
		for i := 0; i < rng.Intn(8); i++ {
			key := make([]byte, 1+rng.Intn(20))
			rng.Read(key)
			items = append(items, MultiReadItem{Table: rng.Uint64(), Key: key})
		}
		env := Envelope{RPCID: rng.Uint64(), Msg: &MultiReadReq{Items: items}}
		b, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		m := got.Msg.(*MultiReadReq)
		if len(m.Items) != len(items) {
			t.Fatalf("items = %d, want %d", len(m.Items), len(items))
		}
		for i := range items {
			if m.Items[i].Table != items[i].Table || !bytes.Equal(m.Items[i].Key, items[i].Key) {
				t.Fatalf("item %d mismatch", i)
			}
		}
	}
}

func TestHeaderLayout(t *testing.T) {
	b, err := Marshal(Envelope{RPCID: 0x1122334455667788, Msg: &PingReq{Seq: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if Op(b[0]) != OpPingReq {
		t.Fatalf("op byte = %d", b[0])
	}
	if b[1] != 0x88 || b[8] != 0x11 {
		t.Fatal("rpc id not little-endian in header")
	}
}

// TestUnmarshalViewAliasesItsInput pins the one difference between the two
// decoders: a view's byte fields are the input's bytes, clipped so an
// append cannot reach the next field; a copy's are its own.
func TestUnmarshalViewAliasesItsInput(t *testing.T) {
	want := &WriteReq{Table: 2, Key: []byte("key"), ValueLen: 5, Value: []byte("value")}
	b, err := Marshal(Envelope{RPCID: 1, Msg: want})
	if err != nil {
		t.Fatal(err)
	}
	viewEnv, err := UnmarshalView(b)
	if err != nil {
		t.Fatal(err)
	}
	copyEnv, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	view, cp := viewEnv.Msg.(*WriteReq), copyEnv.Msg.(*WriteReq)
	if !reflect.DeepEqual(view, want) || !reflect.DeepEqual(cp, want) {
		t.Fatalf("decoded view %#v, copy %#v, want %#v", view, cp, want)
	}
	if cap(view.Key) != len(view.Key) || cap(view.Value) != len(view.Value) {
		t.Fatalf("view not capacity-clipped: key %d/%d value %d/%d",
			len(view.Key), cap(view.Key), len(view.Value), cap(view.Value))
	}
	for i := range b {
		b[i] = 'x'
	}
	if string(view.Key) != "xxx" || string(view.Value) != "xxxxx" {
		t.Fatalf("UnmarshalView copied: key %q value %q after the input was overwritten", view.Key, view.Value)
	}
	if !reflect.DeepEqual(cp, want) {
		t.Fatalf("Unmarshal aliased its input: %#v", cp)
	}
}

// TestViewStringsAreCopies: a string field must never alias a frame, and
// decoding one costs the message and the string, nothing more.
func TestViewStringsAreCopies(t *testing.T) {
	b, err := Marshal(Envelope{RPCID: 1, Msg: &CreateTableReq{Name: "usertable", ServerSpan: 3}})
	if err != nil {
		t.Fatal(err)
	}
	in := append([]byte(nil), b...)
	env, err := UnmarshalView(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 'x'
	}
	if name := env.Msg.(*CreateTableReq).Name; name != "usertable" {
		t.Fatalf("name %q aliases the input", name)
	}
	for name, decode := range map[string]func([]byte) (Envelope, error){"Unmarshal": Unmarshal, "UnmarshalView": UnmarshalView} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := decode(b); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s(CreateTableReq) allocates %v objects, want 2", name, got)
		}
	}
}

// multiReadResp is a MultiReadResp of n found items carrying valueLen
// bytes each: the response to one multi-read round.
func multiReadResp(n, valueLen int) *MultiReadResp {
	m := &MultiReadResp{Status: StatusOK, Items: make([]MultiReadResult, n)}
	for i := range m.Items {
		m.Items[i] = MultiReadResult{Status: StatusOK, Version: uint64(i + 1),
			ValueLen: uint32(valueLen), Value: bytes.Repeat([]byte{'v'}, valueLen)}
	}
	return m
}

// TestDecodeAllocations pins what decoding a counted list costs: the
// message, its list made once at its final length, and (copying) one slab
// for all the items' values. Nothing grows while the list is read.
func TestDecodeAllocations(t *testing.T) {
	req := &MultiReadReq{Items: make([]MultiReadItem, 14)}
	for i := range req.Items {
		req.Items[i] = MultiReadItem{Table: 1, Key: []byte(fmt.Sprintf("user%010d", i))}
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (Envelope, error)
		msg    Message
		want   float64
	}{
		{"Unmarshal(MultiReadResp/14 x 1 KiB)", Unmarshal, multiReadResp(14, 1024), 3},
		{"UnmarshalView(MultiReadReq/14)", UnmarshalView, req, 2},
	} {
		b, err := Marshal(Envelope{RPCID: 1, Msg: c.msg})
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := c.decode(b); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s allocates %v objects, want %v", c.name, got, c.want)
		}
	}
}

// TestUnmarshalSlab: a copying decode puts every byte field of a message
// in one slab, no larger than the frame, and clips each field so that an
// append to one cannot reach the next.
func TestUnmarshalSlab(t *testing.T) {
	msg := multiReadResp(11, 1024)
	for i := range msg.Items {
		msg.Items[i].Value[0] = byte(i)
	}
	msg.Items = append(msg.Items,
		MultiReadResult{Status: StatusUnknownKey},                       // nil value
		MultiReadResult{Status: StatusOK, Version: 12, Value: []byte{}}) // empty value
	b, err := Marshal(Envelope{RPCID: 1, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	// The message, its list, and one slab for all eleven values.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	}); got != 3 {
		t.Errorf("Unmarshal(MultiReadResp/11 x 1 KiB) allocates %v objects, want 3", got)
	}

	env, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	items := env.Msg.(*MultiReadResp).Items
	for i, it := range items[:11] {
		if len(it.Value) != 1024 || cap(it.Value) != 1024 || it.Value[0] != byte(i) {
			t.Fatalf("item %d: value len %d cap %d first byte %d", i, len(it.Value), cap(it.Value), it.Value[0])
		}
	}
	before := append([]byte(nil), items[1].Value...)
	grown := append(items[0].Value, bytes.Repeat([]byte{0xEE}, 64)...)
	if !bytes.Equal(items[1].Value, before) || &grown[0] == &items[0].Value[0] {
		t.Fatal("appending to item 0's value wrote over item 1's")
	}
	for _, i := range []int{11, 12} {
		if v := items[i].Value; v == nil || len(v) != 0 || items[i].ValueLen != 0 {
			t.Errorf("item %d: value %#v (ValueLen %d), want empty and non-nil as before", i, v, items[i].ValueLen)
		}
	}

	// The slab never exceeds its frame, and a value at a frame's end (a
	// ReadResp's) gets exactly its own bytes.
	read, err := Marshal(Envelope{RPCID: 1, Msg: &ReadResp{Status: StatusOK, ValueLen: 100, Value: make([]byte, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{b, read}
	for _, m := range allMessages() {
		f, err := Marshal(Envelope{RPCID: 1, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		c := &codec{b: f, dec: true}
		env, err := unmarshalBody(c)
		if err != nil {
			t.Fatal(err)
		}
		if cap(c.slab) > len(f) {
			t.Errorf("%T: slab cap %d exceeds its %d-byte frame", env.Msg, cap(c.slab), len(f))
		}
		if r, ok := env.Msg.(*ReadResp); ok && cap(c.slab) != len(r.Value) {
			t.Errorf("ReadResp: slab cap %d for a %d-byte value", cap(c.slab), len(r.Value))
		}
	}
}

// decoders are the two ways to decode a frame.
var decoders = map[string]func([]byte) (Envelope, error){"Unmarshal": Unmarshal, "UnmarshalView": UnmarshalView}

// isList reports whether a message field is a counted list (a slice of
// structs, not of bytes).
func isList(f reflect.Value) bool {
	return f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct
}

// emptyLists returns a copy of msg with every counted list set to a
// non-nil empty slice, and how many lists it carries. Every message's
// lists are its last fields, so with them empty the frame ends in their
// counts.
func emptyLists(msg Message) (Message, int) {
	v := reflect.New(reflect.TypeOf(msg).Elem()).Elem()
	v.Set(reflect.ValueOf(msg).Elem())
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); isList(f) {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
			n++
		}
	}
	return v.Addr().Interface().(Message), n
}

// TestHostileListCount: a well-framed envelope whose list count is
// 2^32-1 fails with ErrTruncated from both decoders, having allocated at
// most the message struct, not a slice sized by the count.
func TestHostileListCount(t *testing.T) {
	lists := 0
	for _, msg := range allMessages() {
		empty, n := emptyLists(msg)
		b, err := Marshal(Envelope{RPCID: 1, Msg: empty})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		for k := 1; k <= n; k++ {
			lists++
			hostile := append([]byte(nil), b...)
			copy(hostile[len(b)-4*k:], []byte{0xff, 0xff, 0xff, 0xff})
			for name, decode := range decoders {
				if _, err := decode(hostile); !errors.Is(err, ErrTruncated) {
					t.Errorf("%s(%T, count %d from the end = 2^32-1): err = %v, want ErrTruncated", name, msg, k, err)
				}
				if got := testing.AllocsPerRun(20, func() { _, _ = decode(hostile) }); got > 1 {
					t.Errorf("%s(%T, hostile count) allocates %v objects, want at most the message", name, msg, got)
				}
			}
		}
	}
	if lists != 15 {
		t.Fatalf("checked %d counted lists, want 15 (one per list-carrying message, two in RecoverReq)", lists)
	}
}

// TestEmptyListsDecodeNil: a zero count decodes to a nil list, even when
// the list encoded was empty rather than nil.
func TestEmptyListsDecodeNil(t *testing.T) {
	for _, msg := range allMessages() {
		empty, n := emptyLists(msg)
		if n == 0 {
			continue
		}
		b, err := Marshal(Envelope{RPCID: 1, Msg: empty})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		for name, decode := range decoders {
			env, err := decode(b)
			if err != nil {
				t.Fatalf("%s(%T): %v", name, msg, err)
			}
			v := reflect.ValueOf(env.Msg).Elem()
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); isList(f) && !f.IsNil() {
					t.Errorf("%s(%T): %s decoded to an empty non-nil list", name, msg, v.Type().Field(i).Name)
				}
			}
		}
	}
}
