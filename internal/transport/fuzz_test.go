package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ramcloud/internal/wire"
)

// FuzzFrame throws arbitrary byte streams at the frame reader. The
// invariants: no panic, no runaway allocation (a hostile length field is
// bounded by MaxEnvelopeSize before make), and any frame that decodes
// successfully re-marshals byte-identically — so an attacker cannot craft
// two distinct byte strings the reader conflates.
func FuzzFrame(f *testing.F) {
	seed := func(env wire.Envelope) []byte {
		b, err := wire.Marshal(env)
		if err != nil {
			f.Fatalf("seed marshal: %v", err)
		}
		return b
	}
	valid := seed(wire.Envelope{RPCID: 1, Msg: &wire.ReadReq{Table: 1, Key: []byte("user0000000001")}})
	f.Add(valid)
	f.Add(seed(wire.Envelope{RPCID: 99, Msg: &wire.ServerListResp{Status: wire.StatusOK, Servers: []wire.ServerAddr{{ID: 2, Addr: "127.0.0.1:1"}}}}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(valid[:7])                                            // torn header
	f.Add(valid[:len(valid)-1])                                 // torn body
	f.Add(append(append([]byte{}, valid...), valid...))         // two frames back to back
	f.Add(append(append([]byte{}, valid...), 0xFF, 0x00, 0x13)) // garbage tail
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[9:13], 0xFFFFFFFE) // hostile length
	f.Add(huge)
	zero := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(zero[9:13], 0) // zero length
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			env, err := ReadFrame(r)
			if err != nil {
				if err == io.EOF {
					return // clean boundary
				}
				// Every failure must be a typed decode error or a torn
				// read — never a panic (implicit) and never success with
				// garbage attached.
				if !errors.Is(err, io.ErrUnexpectedEOF) &&
					!errors.Is(err, wire.ErrTooLarge) &&
					!errors.Is(err, wire.ErrBadLength) &&
					!errors.Is(err, wire.ErrTruncated) &&
					!errors.Is(err, wire.ErrUnknownOp) {
					t.Fatalf("untyped frame error: %v", err)
				}
				return
			}
			// Accepted frames must survive a marshal round trip.
			b, err := wire.Marshal(env)
			if err != nil {
				t.Fatalf("accepted frame does not re-marshal: %v", err)
			}
			env2, err := wire.Unmarshal(b)
			if err != nil {
				t.Fatalf("re-marshaled frame does not decode: %v", err)
			}
			b2, err := wire.Marshal(env2)
			if err != nil || !bytes.Equal(b, b2) {
				t.Fatal("marshal/unmarshal not a fixed point")
			}
		}
	})
}
