package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ramcloud/internal/wire"
)

// A marshaled wire.Envelope is self-framing: its header carries the
// opcode (1 byte), the RPC id (8) and the total frame length (4,
// little-endian), so the frame reader needs no extra prefix — it reads
// the header, validates the length field against hard bounds, and then
// reads exactly the remaining bytes. The length bytes come off the
// network and are validated BEFORE any allocation sized by them: a
// hostile prefix is rejected with wire.ErrTooLarge / wire.ErrBadLength
// instead of driving a multi-gigabyte make([]byte, ...).

// frameBufPool recycles the scratch buffers frames are read into and
// (for the plain WriteFrame path) encoded into. wire.Unmarshal copies
// every byte a decoded message references, so ReadFrame's buffer is
// reusable the moment it returns; a server connection decodes views
// instead and keeps the buffer until the request has been served
// (readFrame, tcpListener.serve).
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// maxPooledBuf caps the capacity of buffers returned to the pool. The
// rare jumbo frames (recovery segments, up to MaxEnvelopeSize) would
// otherwise pin tens of megabytes per idle connection.
const maxPooledBuf = 1 << 20

func getFrameBuf(n int) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		frameBufPool.Put(bp)
	}
}

// ReadFrame reads one envelope frame from r. io.EOF is returned only at
// a clean frame boundary; a frame torn mid-read surfaces as
// io.ErrUnexpectedEOF. Decode failures carry the wire package's typed
// errors so callers can log-and-drop. The scratch buffer the frame
// lands in is pooled: the returned message owns its bytes.
func ReadFrame(r io.Reader) (wire.Envelope, error) {
	env, bp, err := readFrame(r, false)
	if err == nil {
		putFrameBuf(bp)
	}
	return env, err
}

// readFrame is ReadFrame with the choice of decoder. With view set the
// message is decoded by wire.UnmarshalView: its byte fields are the pooled
// buffer's bytes, valid until the caller hands the returned buffer to
// putFrameBuf. On error the buffer has already been released.
func readFrame(r io.Reader, view bool) (wire.Envelope, *[]byte, error) {
	// The header lands in the pooled buffer too — a stack [HeaderSize]
	// array would escape through the io.ReadFull interface call and cost
	// a heap allocation per frame.
	bp := getFrameBuf(wire.HeaderSize)
	hdr := (*bp)[:wire.HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		putFrameBuf(bp)
		if err == io.EOF {
			return wire.Envelope{}, nil, io.EOF
		}
		return wire.Envelope{}, nil, fmt.Errorf("transport: torn frame header: %w", io.ErrUnexpectedEOF)
	}
	total := binary.LittleEndian.Uint32(hdr[9:13])
	if total < wire.HeaderSize {
		putFrameBuf(bp)
		return wire.Envelope{}, nil, fmt.Errorf("%w: frame length %d < header %d", wire.ErrBadLength, total, wire.HeaderSize)
	}
	if total > wire.MaxEnvelopeSize {
		putFrameBuf(bp)
		return wire.Envelope{}, nil, fmt.Errorf("%w: frame length %d", wire.ErrTooLarge, total)
	}
	if cap(*bp) < int(total) {
		nb := make([]byte, total)
		copy(nb, hdr)
		*bp = nb[:0]
	}
	buf := (*bp)[:total]
	if _, err := io.ReadFull(r, buf[wire.HeaderSize:]); err != nil {
		putFrameBuf(bp)
		return wire.Envelope{}, nil, fmt.Errorf("transport: torn frame body: %w", io.ErrUnexpectedEOF)
	}
	decode := wire.Unmarshal
	if view {
		decode = wire.UnmarshalView
	}
	env, err := decode(buf)
	if err != nil {
		putFrameBuf(bp)
		return wire.Envelope{}, nil, err
	}
	return env, bp, nil
}

// WriteFrame marshals env and writes it as one frame through a pooled
// scratch buffer. The TCP backend's hot path does not use it — frames
// there are coalesced into per-connection buffers by connWriter — but
// it remains the simple one-shot primitive for tests and tools.
func WriteFrame(w io.Writer, env wire.Envelope) error {
	bp := getFrameBuf(0)
	b, err := wire.AppendEnvelope((*bp)[:0], env)
	if err != nil {
		putFrameBuf(bp)
		return err
	}
	*bp = b[:0]
	_, err = w.Write(b)
	putFrameBuf(bp)
	return err
}
