package store

import (
	"reflect"
	"testing"
	"time"
)

func rpcFixtures() []rpc {
	return []rpc{
		{Kind: kindWrite, ReqID: 1, Key: "k", Val: []byte("v1"), Ver: 3},
		{Kind: kindWriteAck, ReqID: 1, Key: "k", OK: true},
		{Kind: kindRead, ReqID: 2, Key: "sensor/温度"},
		{Kind: kindReadReply, ReqID: 2, Key: "k", Val: []byte{}, Ver: 9, OK: true},
		{Kind: kindAppend, ReqID: 3, Key: "m/press", Ver: 7,
			Pts: []Point{{T: time.Second, V: 1.5}, {T: 2 * time.Second, V: 1.75}}},
		{Kind: kindAppendAck, ReqID: 3, Key: "m/press", OK: true},
		{Kind: kindRange, ReqID: 4, Key: "m/press", From: -time.Second, To: time.Hour},
		{Kind: kindRangeReply, ReqID: 4, Key: "m/press", Ver: 7, OK: true,
			Pts: []Point{{T: time.Second, V: 1.5}}},
		{Kind: kindSync, Key: "m/press"},
		{Kind: kindSyncReply, Key: "m/press", Ver: 7,
			Pts: []Point{{T: time.Second, V: 1.5}, {T: 2 * time.Second, V: 1.75}}},
	}
}

func TestRPCRoundTrip(t *testing.T) {
	for _, m := range rpcFixtures() {
		data, release, err := marshalRPC(&m)
		if err != nil {
			t.Fatalf("kind %d: marshal: %v", m.Kind, err)
		}
		got, err := parseRPC(data)
		release()
		if err != nil {
			t.Fatalf("kind %d: parse: %v", m.Kind, err)
		}
		// Normalize zero-length slices: the parser returns them as nil.
		if len(m.Val) == 0 {
			m.Val, got.Val = nil, nil
		}
		if len(m.Pts) == 0 {
			m.Pts, got.Pts = nil, nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("kind %d round-trip:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// Every frame is tagged with rpcMagic, and one that is not is rejected,
// whatever else it may be — including a well-formed JSON rendering of
// an RPC.
func TestRPCBinaryFramesAreTagged(t *testing.T) {
	m := rpc{Kind: kindWrite, ReqID: 1, Key: "k", Val: []byte("v")}
	data, release, err := marshalRPC(&m)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if data[0] != rpcMagic {
		t.Fatalf("frame starts with %#x, want %#x", data[0], rpcMagic)
	}
	for _, frame := range [][]byte{
		nil,
		[]byte(jsonRPCFrame),
		append([]byte{rpcMagic ^ 0xff}, data[1:]...),
	} {
		if _, err := parseRPC(frame); err == nil {
			t.Fatalf("frame %q accepted", frame)
		}
	}
}

// jsonRPCFrame is a write RPC in the JSON encoding replicas once also
// accepted.
const jsonRPCFrame = `{"kind":"write","req_id":1,"key":"k","val":"dg==","ver":3,"ok":false}`

func TestRPCBinaryRejectsCorruptFrames(t *testing.T) {
	m := rpc{Kind: kindAppend, ReqID: 3, Key: "s", Ver: 1, Pts: []Point{{T: 1, V: 1}}}
	data, release, err := marshalRPC(&m)
	if err != nil {
		t.Fatal(err)
	}
	enc := append([]byte(nil), data...)
	release()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := parseRPC(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := parseRPC(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = 0xEE // unknown kind code
	if _, err := parseRPC(bad); err == nil {
		t.Fatal("unknown kind code accepted")
	}
}

// BenchmarkRPCCodec times one encode + parse round trip of a 64-point
// append.
func BenchmarkRPCCodec(b *testing.B) {
	m := rpcBenchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, release, err := marshalRPC(&m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := parseRPC(data); err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// BenchmarkRPCEncode isolates the send-side cost (the part the pooled
// buffers eliminate).
func BenchmarkRPCEncode(b *testing.B) {
	m := rpcBenchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, release, err := marshalRPC(&m)
		if err != nil || len(data) == 0 {
			b.Fatal(err)
		}
		release()
	}
}

func rpcBenchMessage() rpc {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{T: time.Duration(i) * 50 * time.Millisecond, V: 20 + float64(i%5)*0.25}
	}
	return rpc{Kind: kindAppend, ReqID: 42, Key: "plant/line3/temp", Ver: 900, Pts: pts}
}
