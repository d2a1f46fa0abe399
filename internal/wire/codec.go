package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Envelope wraps a message with its RPC correlation id.
type Envelope struct {
	RPCID uint64
	Msg   Message
}

// codec is the one walker every message's walk drives. Encoding, it
// appends each field to b; decoding, it reads each field from b at off,
// as a capacity-clipped sub-slice of slab (a copy) or, with view set, of
// b. The first failure sticks (ErrVirtualValue encoding, ErrTruncated
// decoding), the walk runs on, and its result is discarded.
type codec struct {
	b    []byte
	off  int
	dec  bool
	view bool
	slab []byte // copying decode: every byte field's copy, one allocation
	err  error
}

// codecPool recycles codecs: a codec escapes into the Message interface
// call, so without the pool every frame would heap-allocate one.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

// next consumes n bytes of the input as a capacity-clipped sub-slice;
// nil after a failure. Decoding fails in one way only, so the error is
// set, not kept.
func (c *codec) next(n int) []byte {
	if c.err != nil || n > len(c.b)-c.off {
		c.err = ErrTruncated
		return nil
	}
	v := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return v
}

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.next(1); p != nil {
		*v = p[0]
	}
}

func (c *codec) status(v *Status) { c.u8((*uint8)(v)) }

func (c *codec) b1(v *bool) {
	if !c.dec {
		var x uint8
		if *v {
			x = 1
		}
		c.b = append(c.b, x)
	} else if p := c.next(1); p != nil {
		*v = p[0] != 0
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	} else if p := c.next(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (c *codec) i32(v *int32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = int32(binary.LittleEndian.Uint32(p))
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	} else if p := c.next(8); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

func (c *codec) i64(v *int64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if p := c.next(8); p != nil {
		*v = int64(binary.LittleEndian.Uint64(p))
	}
}

// take decodes a length-prefixed field as a sub-slice of the input.
func (c *codec) take() []byte {
	var n uint32
	c.u32(&n)
	return c.next(int(n))
}

// bytes walks a length-prefixed byte field. A decoded one is a copy unless
// the codec is a view. The copies share one slab, allocated at the
// message's first non-empty byte field and sized by what is left of the
// input from that field on, which bounds every byte field still to come:
// it never grows, and a field at the end of a frame gets exactly its own
// bytes. An empty field decodes to an empty, non-nil slice.
func (c *codec) bytes(v *[]byte) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	p := c.take()
	switch {
	case c.view || p == nil: // a view, or past a failure: as taken
	case len(p) == 0:
		p = []byte{}
	default:
		if c.slab == nil {
			c.slab = make([]byte, 0, len(c.b)-c.off+len(p))
		}
		n := len(c.slab)
		c.slab = append(c.slab, p...)
		p = c.slab[n:len(c.slab):len(c.slab)]
	}
	*v = p
}

// str walks a length-prefixed string. It converts straight from the
// input: one allocation, and never a view (a string must not alias a
// frame that will be reused).
func (c *codec) str(v *string) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	*v = string(c.take())
}

// value walks a value and its declared length. Encoding fails a virtual
// value (a declared length without the bytes); decoding sets the length
// from the bytes carried.
func (c *codec) value(n *uint32, v *[]byte) {
	if !c.dec && int(*n) != len(*v) {
		if c.err == nil {
			c.err = fmt.Errorf("%w: declared %d bytes, carrying %d", ErrVirtualValue, *n, len(*v))
		}
		return
	}
	c.bytes(v)
	if c.dec {
		*n = uint32(len(*v))
	}
}

// list walks a counted list: a u32 count, then each element's walk. A
// decoded list is made once, at its final length, and only after the
// remaining input is seen to hold that many elements at their smallest
// encoding, so a hostile count fails before anything is allocated. A zero
// count decodes to nil.
func list[T any](c *codec, s *[]T, walk func(*T, *codec)) {
	n := uint32(len(*s))
	c.u32(&n)
	if !c.dec {
		for i := range *s {
			walk(&(*s)[i], c)
		}
		return
	}
	if c.err != nil || n == 0 {
		return
	}
	if uint64(n)*uint64(minSize(walk)) > uint64(len(c.b)-c.off) {
		c.err = ErrTruncated
		return
	}
	out := make([]T, n)
	for i := range out {
		walk(&out[i], c)
	}
	*s = out
}

// minSizes caches each list element type's smallest encoding, keyed by
// a nil pointer of that type.
var minSizes sync.Map

// minSize is the encoded size of T's zero value: no bytes, no string,
// no value, which is the least any T can take on the wire.
func minSize[T any](walk func(*T, *codec)) int {
	key := any((*T)(nil))
	if n, ok := minSizes.Load(key); ok {
		return n.(int)
	}
	c := new(codec)
	walk(new(T), c)
	minSizes.Store(key, len(c.b))
	return len(c.b)
}

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
	c := codecPool.Get().(*codec)
	*c = codec{b: dst}
	op, total := uint8(env.Msg.Op()), uint32(0) // total back-patched below
	c.u8(&op)
	c.u64(&env.RPCID)
	c.u32(&total)
	env.Msg.walk(c)
	out, err := c.b, c.err
	*c = codec{}
	codecPool.Put(c)
	if err != nil {
		return dst, err
	}
	// The length of this frame, not of the whole buffer.
	binary.LittleEndian.PutUint32(out[start+9:], uint32(len(out)-start))
	return out, nil
}

// Unmarshal decodes a message produced by Marshal. Inputs that cannot
// be a valid envelope are rejected with typed errors (ErrTruncated,
// ErrTooLarge, ErrBadLength, ErrUnknownOp) before any message-body
// decoding, so a transport facing network bytes can log-and-drop
// without allocating for hostile frames. The decoded message owns its
// bytes: b may be reused immediately. Its byte fields share one
// allocation, so holding on to one of them (one value of a multi-read)
// keeps its siblings alive too; each is capacity-clipped, so appending to
// one never writes over the next.
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
	c := codecPool.Get().(*codec)
	*c = codec{b: b, dec: true, view: view}
	env, err := unmarshalBody(c)
	*c = codec{}
	codecPool.Put(c)
	return env, err
}

// unmarshalBody reads the header, constructs the message its opcode
// names, and walks it.
func unmarshalBody(c *codec) (Envelope, error) {
	var (
		env   Envelope
		op    Op
		total uint32
	)
	c.u8((*uint8)(&op))
	c.u64(&env.RPCID)
	c.u32(&total)
	if int64(total) != int64(len(c.b)) {
		return Envelope{}, fmt.Errorf("%w: length field %d != buffer %d", ErrBadLength, total, len(c.b))
	}
	switch op {
	case OpReadReq:
		env.Msg = &ReadReq{}
	case OpReadResp:
		env.Msg = &ReadResp{}
	case OpWriteReq:
		env.Msg = &WriteReq{}
	case OpWriteResp:
		env.Msg = &WriteResp{}
	case OpDeleteReq:
		env.Msg = &DeleteReq{}
	case OpDeleteResp:
		env.Msg = &DeleteResp{}
	case OpCreateTableReq:
		env.Msg = &CreateTableReq{}
	case OpCreateTableResp:
		env.Msg = &CreateTableResp{}
	case OpDropTableReq:
		env.Msg = &DropTableReq{}
	case OpDropTableResp:
		env.Msg = &DropTableResp{}
	case OpGetTabletMapReq:
		env.Msg = &GetTabletMapReq{}
	case OpGetTabletMapResp:
		env.Msg = &GetTabletMapResp{}
	case OpEnlistReq:
		env.Msg = &EnlistReq{}
	case OpEnlistResp:
		env.Msg = &EnlistResp{}
	case OpPingReq:
		env.Msg = &PingReq{}
	case OpPingResp:
		env.Msg = &PingResp{}
	case OpSetWillReq:
		env.Msg = &SetWillReq{}
	case OpSetWillResp:
		env.Msg = &SetWillResp{}
	case OpOpenSegmentReq:
		env.Msg = &OpenSegmentReq{}
	case OpOpenSegmentResp:
		env.Msg = &OpenSegmentResp{}
	case OpReplicateReq:
		env.Msg = &ReplicateReq{}
	case OpReplicateResp:
		env.Msg = &ReplicateResp{}
	case OpCloseSegmentReq:
		env.Msg = &CloseSegmentReq{}
	case OpCloseSegmentResp:
		env.Msg = &CloseSegmentResp{}
	case OpFreeReplicasReq:
		env.Msg = &FreeReplicasReq{}
	case OpFreeReplicasResp:
		env.Msg = &FreeReplicasResp{}
	case OpSegmentInventoryReq:
		env.Msg = &SegmentInventoryReq{}
	case OpSegmentInventoryResp:
		env.Msg = &SegmentInventoryResp{}
	case OpGetRecoveryDataReq:
		env.Msg = &GetRecoveryDataReq{}
	case OpGetRecoveryDataResp:
		env.Msg = &GetRecoveryDataResp{}
	case OpRecoverReq:
		env.Msg = &RecoverReq{}
	case OpRecoverResp:
		env.Msg = &RecoverResp{}
	case OpRecoveryDoneReq:
		env.Msg = &RecoveryDoneReq{}
	case OpRecoveryDoneResp:
		env.Msg = &RecoveryDoneResp{}
	case OpRDMAWriteReq:
		env.Msg = &RDMAWriteReq{}
	case OpRDMAWriteResp:
		env.Msg = &RDMAWriteResp{}
	case OpMultiReadReq:
		env.Msg = &MultiReadReq{}
	case OpMultiReadResp:
		env.Msg = &MultiReadResp{}
	case OpMultiWriteReq:
		env.Msg = &MultiWriteReq{}
	case OpMultiWriteResp:
		env.Msg = &MultiWriteResp{}
	case OpMigrateTabletReq:
		env.Msg = &MigrateTabletReq{}
	case OpMigrateTabletResp:
		env.Msg = &MigrateTabletResp{}
	case OpTakeTabletReq:
		env.Msg = &TakeTabletReq{}
	case OpTakeTabletResp:
		env.Msg = &TakeTabletResp{}
	case OpEnlistAddrReq:
		env.Msg = &EnlistAddrReq{}
	case OpEnlistAddrResp:
		env.Msg = &EnlistAddrResp{}
	case OpServerListReq:
		env.Msg = &ServerListReq{}
	case OpServerListResp:
		env.Msg = &ServerListResp{}
	case OpAssignTabletsReq:
		env.Msg = &AssignTabletsReq{}
	case OpAssignTabletsResp:
		env.Msg = &AssignTabletsResp{}
	default:
		return Envelope{}, fmt.Errorf("%w: %d", ErrUnknownOp, op)
	}
	env.Msg.walk(c)
	if c.err != nil {
		return Envelope{}, c.err
	}
	return env, nil
}
