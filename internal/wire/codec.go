package wire

import (
	"fmt"
	"sync"
)

// Envelope wraps a message with its RPC correlation id.
type Envelope struct {
	RPCID uint64
	Msg   Message
}

const objectFixed = 8 + 8 + 4 + 4 + 8 + 1 // table, keyhash, keylen, valuelen, version, tombstone

func objectSize(o *Object) int { return objectFixed + len(o.Key) + int(o.ValueLen) }

const tabletSize = 8 + 8 + 8 + 4 + 1
const segInfoSize = 8 + 4
const segLocSize = 8 + 4 + 4
const willPartSize = 8 + 8

// encPool recycles encoder headers so the append-style encoding path
// allocates nothing beyond the destination buffer's own growth. The
// encoder escapes into the Message interface call, so without the pool
// every frame would heap-allocate one.
var encPool = sync.Pool{New: func() any { return new(encoder) }}

// Marshal encodes the envelope. Messages carrying virtual values (declared
// length without bytes) return ErrVirtualValue: they can cross the simulated
// fabric but not a real one.
func Marshal(env Envelope) ([]byte, error) {
	if env.Msg == nil {
		return nil, fmt.Errorf("%w: nil message", ErrUnknownOp)
	}
	return AppendEnvelope(make([]byte, 0, env.Msg.WireSize()), env)
}

// AppendEnvelope encodes env onto the end of dst and returns the
// extended slice, exactly as Marshal would but reusing dst's capacity.
// This is the transport's coalescing path: many envelopes encode into
// one per-connection buffer that is flushed with a single write. On
// error dst is returned unchanged (no partial frame is ever appended).
func AppendEnvelope(dst []byte, env Envelope) ([]byte, error) {
	if env.Msg == nil {
		return dst, fmt.Errorf("%w: nil message", ErrUnknownOp)
	}
	start := len(dst)
	e := encPool.Get().(*encoder)
	e.b = dst
	e.u8(uint8(env.Msg.Op()))
	e.u64(env.RPCID)
	e.u32(0) // length back-patched below
	if err := env.Msg.encodeBody(e); err != nil {
		e.b = nil
		encPool.Put(e)
		return dst, err
	}
	out := e.b
	e.b = nil
	encPool.Put(e)
	// Back-patch total length (of this frame, not the whole buffer).
	total := uint32(len(out) - start)
	out[start+9] = byte(total)
	out[start+10] = byte(total >> 8)
	out[start+11] = byte(total >> 16)
	out[start+12] = byte(total >> 24)
	return out, nil
}

func encodeValue(e *encoder, declared uint32, value []byte) error {
	if int(declared) != len(value) {
		return fmt.Errorf("%w: declared %d bytes, carrying %d", ErrVirtualValue, declared, len(value))
	}
	e.bytes(value)
	return nil
}

func encodeTablet(e *encoder, t *Tablet) {
	e.u64(t.Table)
	e.u64(t.StartHash)
	e.u64(t.EndHash)
	e.i32(t.Master)
	e.b1(t.Recovering)
}

func encodeObject(e *encoder, o *Object) error {
	if int(o.ValueLen) != len(o.Value) {
		return fmt.Errorf("%w: object declares %d bytes, carries %d", ErrVirtualValue, o.ValueLen, len(o.Value))
	}
	e.u64(o.Table)
	e.u64(o.KeyHash)
	e.bytes(o.Key)
	e.bytes(o.Value)
	e.u64(o.Version)
	e.b1(o.Tombstone)
	return nil
}

func decodeTablet(d *decoder) Tablet {
	return Tablet{
		Table:      d.u64(),
		StartHash:  d.u64(),
		EndHash:    d.u64(),
		Master:     d.i32(),
		Recovering: d.b1(),
	}
}

func decodeObject(d *decoder) Object {
	o := Object{Table: d.u64(), KeyHash: d.u64(), Key: d.bytes()}
	o.Value = d.bytes()
	o.ValueLen = uint32(len(o.Value))
	o.Version = d.u64()
	o.Tombstone = d.b1()
	return o
}

// decPool recycles decoder headers across Unmarshal calls; a decoder
// holds no state worth keeping once its call returns.
var decPool = sync.Pool{New: func() any { return new(decoder) }}

// Unmarshal decodes a message produced by Marshal. Inputs that cannot
// be a valid envelope are rejected with typed errors (ErrTruncated,
// ErrTooLarge, ErrBadLength, ErrUnknownOp) before any message-body
// decoding, so a transport facing network bytes can log-and-drop
// without allocating for hostile frames. The decoded message owns its
// bytes: b may be reused immediately.
func Unmarshal(b []byte) (Envelope, error) { return unmarshal(b, false) }

// UnmarshalView decodes like Unmarshal — same accepted inputs, same
// errors, equal messages — but every []byte field of the decoded message
// is a capacity-clipped sub-slice of b instead of a copy. The message is
// valid only while b is left alone: this is for a server that holds the
// frame until its handler has returned. Strings are still copied.
func UnmarshalView(b []byte) (Envelope, error) { return unmarshal(b, true) }

func unmarshal(b []byte, view bool) (Envelope, error) {
	if len(b) < headerSize {
		return Envelope{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(b), headerSize)
	}
	if len(b) > MaxEnvelopeSize {
		return Envelope{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(b))
	}
	d := decPool.Get().(*decoder)
	*d = decoder{b: b, view: view}
	env, err := unmarshalBody(d)
	d.b = nil
	decPool.Put(d)
	return env, err
}

func unmarshalBody(d *decoder) (Envelope, error) {
	b := d.b
	op := Op(d.u8())
	rpcID := d.u64()
	total := d.u32()
	if int64(total) != int64(len(b)) {
		return Envelope{}, fmt.Errorf("%w: length field %d != buffer %d", ErrBadLength, total, len(b))
	}
	var msg Message
	switch op {
	case OpReadReq:
		msg = &ReadReq{Table: d.u64(), Key: d.bytes()}
	case OpReadResp:
		m := &ReadResp{Status: Status(d.u8()), Version: d.u64()}
		m.Value = d.bytes()
		m.ValueLen = uint32(len(m.Value))
		msg = m
	case OpWriteReq:
		m := &WriteReq{Table: d.u64(), Key: d.bytes()}
		m.Value = d.bytes()
		m.ValueLen = uint32(len(m.Value))
		msg = m
	case OpWriteResp:
		msg = &WriteResp{Status: Status(d.u8()), Version: d.u64()}
	case OpDeleteReq:
		msg = &DeleteReq{Table: d.u64(), Key: d.bytes()}
	case OpDeleteResp:
		msg = &DeleteResp{Status: Status(d.u8()), Version: d.u64()}
	case OpCreateTableReq:
		msg = &CreateTableReq{Name: d.str(), ServerSpan: d.u32()}
	case OpCreateTableResp:
		msg = &CreateTableResp{Status: Status(d.u8()), Table: d.u64()}
	case OpDropTableReq:
		msg = &DropTableReq{Name: d.str()}
	case OpDropTableResp:
		msg = &DropTableResp{Status: Status(d.u8())}
	case OpGetTabletMapReq:
		msg = &GetTabletMapReq{}
	case OpGetTabletMapResp:
		m := &GetTabletMapResp{Status: Status(d.u8())}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Tablets = append(m.Tablets, decodeTablet(d))
		}
		msg = m
	case OpEnlistReq:
		msg = &EnlistReq{Node: d.i32(), MemoryBytes: d.i64(), HasBackup: d.b1()}
	case OpEnlistResp:
		msg = &EnlistResp{Status: Status(d.u8()), ServerID: d.i32()}
	case OpPingReq:
		msg = &PingReq{Seq: d.u64()}
	case OpPingResp:
		msg = &PingResp{Seq: d.u64()}
	case OpSetWillReq:
		m := &SetWillReq{Master: d.i32()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Partitions = append(m.Partitions, WillPartition{FirstHash: d.u64(), LastHash: d.u64()})
		}
		msg = m
	case OpSetWillResp:
		msg = &SetWillResp{Status: Status(d.u8())}
	case OpOpenSegmentReq:
		msg = &OpenSegmentReq{Master: d.i32(), Segment: d.u64()}
	case OpOpenSegmentResp:
		msg = &OpenSegmentResp{Status: Status(d.u8())}
	case OpReplicateReq:
		m := &ReplicateReq{Master: d.i32(), Segment: d.u64()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Objects = append(m.Objects, decodeObject(d))
		}
		msg = m
	case OpReplicateResp:
		msg = &ReplicateResp{Status: Status(d.u8())}
	case OpCloseSegmentReq:
		msg = &CloseSegmentReq{Master: d.i32(), Segment: d.u64(), SegmentBytes: d.u32()}
	case OpCloseSegmentResp:
		msg = &CloseSegmentResp{Status: Status(d.u8())}
	case OpFreeReplicasReq:
		msg = &FreeReplicasReq{Master: d.i32()}
	case OpFreeReplicasResp:
		msg = &FreeReplicasResp{Status: Status(d.u8())}
	case OpSegmentInventoryReq:
		msg = &SegmentInventoryReq{Master: d.i32()}
	case OpSegmentInventoryResp:
		m := &SegmentInventoryResp{Status: Status(d.u8())}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Segments = append(m.Segments, SegmentInfo{Segment: d.u64(), Bytes: d.u32()})
		}
		msg = m
	case OpGetRecoveryDataReq:
		msg = &GetRecoveryDataReq{Master: d.i32(), Segment: d.u64(), FirstHash: d.u64(), LastHash: d.u64()}
	case OpGetRecoveryDataResp:
		m := &GetRecoveryDataResp{Status: Status(d.u8()), SegmentBytes: d.u32()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Objects = append(m.Objects, decodeObject(d))
		}
		msg = m
	case OpRecoverReq:
		m := &RecoverReq{Crashed: d.i32(), FirstHash: d.u64(), LastHash: d.u64()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Tablets = append(m.Tablets, decodeTablet(d))
		}
		n = d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Segments = append(m.Segments, SegmentLoc{Segment: d.u64(), Backup: d.i32(), Bytes: d.u32()})
		}
		msg = m
	case OpRecoverResp:
		msg = &RecoverResp{Status: Status(d.u8())}
	case OpRecoveryDoneReq:
		msg = &RecoveryDoneReq{Crashed: d.i32(), FirstHash: d.u64(), Ok: d.b1()}
	case OpRecoveryDoneResp:
		msg = &RecoveryDoneResp{Status: Status(d.u8())}
	case OpRDMAWriteReq:
		m := &RDMAWriteReq{Master: d.i32(), Segment: d.u64()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Objects = append(m.Objects, decodeObject(d))
		}
		msg = m
	case OpRDMAWriteResp:
		msg = &RDMAWriteResp{Status: Status(d.u8())}
	case OpMultiReadReq:
		m := &MultiReadReq{}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Items = append(m.Items, MultiReadItem{Table: d.u64(), Key: d.bytes()})
		}
		msg = m
	case OpMultiReadResp:
		m := &MultiReadResp{Status: Status(d.u8())}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			it := MultiReadResult{Status: Status(d.u8()), Version: d.u64()}
			it.Value = d.bytes()
			it.ValueLen = uint32(len(it.Value))
			m.Items = append(m.Items, it)
		}
		msg = m
	case OpMultiWriteReq:
		m := &MultiWriteReq{}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			it := MultiWriteItem{Table: d.u64(), Key: d.bytes()}
			it.Value = d.bytes()
			it.ValueLen = uint32(len(it.Value))
			m.Items = append(m.Items, it)
		}
		msg = m
	case OpMultiWriteResp:
		m := &MultiWriteResp{Status: Status(d.u8())}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Items = append(m.Items, MultiWriteResult{Status: Status(d.u8()), Version: d.u64()})
		}
		msg = m
	case OpMigrateTabletReq:
		msg = &MigrateTabletReq{Table: d.u64(), FirstHash: d.u64(), LastHash: d.u64(), Dst: d.i32()}
	case OpMigrateTabletResp:
		msg = &MigrateTabletResp{Status: Status(d.u8()), Moved: d.u32()}
	case OpTakeTabletReq:
		m := &TakeTabletReq{Table: d.u64(), FirstHash: d.u64(), LastHash: d.u64()}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Objects = append(m.Objects, decodeObject(d))
		}
		msg = m
	case OpTakeTabletResp:
		msg = &TakeTabletResp{Status: Status(d.u8())}
	case OpEnlistAddrReq:
		msg = &EnlistAddrReq{Addr: d.str(), MemoryBytes: d.i64()}
	case OpEnlistAddrResp:
		msg = &EnlistAddrResp{Status: Status(d.u8()), ServerID: d.i32()}
	case OpServerListReq:
		msg = &ServerListReq{}
	case OpServerListResp:
		m := &ServerListResp{Status: Status(d.u8())}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Servers = append(m.Servers, ServerAddr{ID: d.i32(), Addr: d.str()})
		}
		msg = m
	case OpAssignTabletsReq:
		m := &AssignTabletsReq{}
		n := d.u32()
		for i := uint32(0); i < n && d.err == nil; i++ {
			m.Tablets = append(m.Tablets, decodeTablet(d))
		}
		msg = m
	case OpAssignTabletsResp:
		msg = &AssignTabletsResp{Status: Status(d.u8())}
	default:
		return Envelope{}, fmt.Errorf("%w: %d", ErrUnknownOp, op)
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	return Envelope{RPCID: rpcID, Msg: msg}, nil
}
