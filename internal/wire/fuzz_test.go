package wire

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Unmarshal and UnmarshalView: neither
// may panic or over-read, the view decode must reject exactly what the
// copying one rejects, with the same error, and accept to an equal
// message, and anything accepted must re-encode and decode to the same
// opcode. The decoders face bytes from the network, not from Marshal.
func FuzzDecode(f *testing.F) {
	for _, msg := range allMessages() {
		if b, err := Marshal(Envelope{RPCID: 7, Msg: msg}); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := Unmarshal(b)
		view, verr := UnmarshalView(b)
		if (err == nil) != (verr == nil) || err != nil && err.Error() != verr.Error() {
			t.Fatalf("Unmarshal error %v, UnmarshalView error %v", err, verr)
		}
		if err != nil {
			return // rejected input; all that matters is no panic
		}
		if !reflect.DeepEqual(env, view) {
			t.Fatalf("view decode differs from copy:\n copy %#v\n view %#v", env.Msg, view.Msg)
		}
		// Accepted messages are canonical: decoded value lengths always
		// match the carried bytes, so a re-encode must succeed and survive
		// a second decode.
		out, err := Marshal(env)
		if err != nil {
			t.Fatalf("re-Marshal of accepted input failed: %v", err)
		}
		env2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-Unmarshal failed: %v", err)
		}
		if env2.Msg.Op() != env.Msg.Op() || env2.RPCID != env.RPCID {
			t.Fatalf("round trip changed identity: op %d/%d id %d/%d",
				env.Msg.Op(), env2.Msg.Op(), env.RPCID, env2.RPCID)
		}
	})
}
