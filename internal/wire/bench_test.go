package wire

import "testing"

var (
	benchSizeSink int
	benchBufSink  []byte
	benchEnvSink  Envelope
)

func benchMessages() []Envelope {
	return []Envelope{
		{RPCID: 1, Msg: &ReadReq{Table: 3, Key: []byte("user0000000007")}},
		{RPCID: 2, Msg: &ReadResp{Status: StatusOK, Version: 9, ValueLen: 4, Value: []byte("abcd")}},
		{RPCID: 3, Msg: &WriteReq{Table: 3, Key: []byte("user0000000007"), ValueLen: 4, Value: []byte("abcd")}},
		{RPCID: 4, Msg: &WriteResp{Status: StatusOK, Version: 10}},
		{RPCID: 5, Msg: &ReplicateReq{Master: 2, Segment: 7, Objects: []Object{
			{Table: 3, KeyHash: 0xDEAD, Key: []byte("k"), ValueLen: 1, Value: []byte("v"), Version: 1},
		}}},
		{RPCID: 6, Msg: &PingReq{Seq: 99}},
	}
}

// BenchmarkWireSize measures on-wire size computation, which runs once per
// RPC send on the simulated fabric.
func BenchmarkWireSize(b *testing.B) {
	envs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSizeSink += envs[i%len(envs)].Msg.WireSize()
	}
}

// BenchmarkMarshal measures the binary encoding the TCP transport sends
// (the simulated fabric passes structs and never encodes).
func BenchmarkMarshal(b *testing.B) {
	envs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := Marshal(envs[i%len(envs)])
		if err != nil {
			b.Fatal(err)
		}
		benchBufSink = buf
	}
}

// BenchmarkUnmarshal measures the copying decode the TCP client reads
// responses with, over the messages above and one 14-item multi-read
// response of 1 KiB values (a counted list, made once).
func BenchmarkUnmarshal(b *testing.B) {
	envs := append(benchMessages(), Envelope{RPCID: 7, Msg: multiReadResp(14, 1024)})
	frames := make([][]byte, len(envs))
	for i, env := range envs {
		var err error
		if frames[i], err = Marshal(env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := Unmarshal(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		benchEnvSink = env
	}
}
