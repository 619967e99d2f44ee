package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// samePoints compares bit patterns, so NaNs compare equal to themselves.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// FuzzDecodePoints: arbitrary bytes decode without panic, and whatever
// decodes re-encodes to bytes that decode to the same points; the same
// bytes read as raw (stamp, value) pairs — every NaN payload, denormal
// and stamp extreme included — survive encode and decode bit for bit.
func FuzzDecodePoints(f *testing.F) {
	f.Add(appendPoints(nil, extremePoints))
	f.Add(appendPoints(nil, []Point{{T: secs(1), V: 1}, {T: secs(2), V: 1}, {T: secs(3), V: 1.5}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count with no payload behind it
	f.Add([]byte{2, 0})                         // a count larger than the payload
	raw := make([]byte, 0, 16*len(extremePoints))
	for _, p := range extremePoints {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(p.T))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(p.V))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if pts, used, err := decodePoints(nil, data); err == nil {
			if used > len(data) {
				t.Fatalf("consumed %d of %d bytes", used, len(data))
			}
			again, _, err := decodePoints(nil, appendPoints(nil, pts))
			if err != nil || !samePoints(pts, again) {
				t.Fatalf("decoded points do not survive re-encoding: %v", err)
			}
		}
		var pts []Point
		for i := 0; i+16 <= len(data); i += 16 {
			pts = append(pts, Point{
				T: time.Duration(binary.LittleEndian.Uint64(data[i:])),
				V: math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:])),
			})
		}
		enc := appendPoints(nil, pts)
		got, used, err := decodePoints(nil, enc)
		if err != nil || used != len(enc) || !samePoints(pts, got) {
			t.Fatalf("round trip of %d points: used %d of %d, err %v", len(pts), used, len(enc), err)
		}
	})
}

// FuzzParseRPC: arbitrary bytes parse without panic, and a frame that
// parses re-encodes to a frame that parses to the same message.
func FuzzParseRPC(f *testing.F) {
	for _, m := range rpcFixtures() {
		frame, err := appendRPC(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	extreme, _ := appendRPC(nil, &rpc{Kind: kindAppend, Key: "x", From: minTime, To: maxTime, Pts: extremePoints})
	f.Add(extreme)
	f.Add([]byte(jsonRPCFrame))                                                     // the retired JSON encoding: no magic byte
	f.Add([]byte{rpcMagic, 5, 0, 1, 1, 0xff, 0xff, 0xff, 0x7f})                     // key length beyond the frame
	f.Add([]byte{rpcMagic, 5, rpcFlagHasVal, 1, 1, 1, 'k', 0xff, 0xff, 0xff, 0x7f}) // value length beyond the frame
	f.Add([]byte{rpcMagic, 5, 0, 1, 1, 1, 'k', 0, 0, 0xff, 0xff, 0x7f})             // point count beyond the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseRPC(data)
		if err != nil {
			return
		}
		frame, err := appendRPC(nil, &m)
		if err != nil {
			t.Fatalf("a parsed message does not encode: %v", err)
		}
		again, err := parseRPC(frame)
		if err != nil {
			t.Fatalf("a re-encoded message does not parse: %v", err)
		}
		if m.Kind != again.Kind || m.ReqID != again.ReqID || m.Key != again.Key || m.Ver != again.Ver ||
			m.OK != again.OK || m.From != again.From || m.To != again.To ||
			!bytes.Equal(m.Val, again.Val) || (m.Val == nil) != (again.Val == nil) || !samePoints(m.Pts, again.Pts) {
			t.Fatalf("round trip changed the message:\n %+v\n %+v", m, again)
		}
	})
}
