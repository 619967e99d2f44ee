package lowpan

import (
	"bytes"
	"testing"

	"iiotds/internal/radio"
)

// FuzzEncodeFeedRoundTrip drives the adaptation layer end to end:
// whatever datagram we can Encode must reassemble via Feed into the
// identical datagram. The seed corpus covers the unfragmented,
// three-fragment, and max-size paths, so plain `go test` already
// exercises all three.
func FuzzEncodeFeedRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), byte(ProtoCoAP), byte(64), uint16(7), []byte("hello"))
	f.Add(uint16(3), uint16(4), byte(ProtoGossip), byte(1), uint16(0), make([]byte, 200))
	f.Add(uint16(5), uint16(6), byte(ProtoRaw), byte(255), uint16(65535), make([]byte, MaxDatagramSize-headerLen))
	f.Add(uint16(0), uint16(0), byte(0), byte(0), uint16(0), []byte{})

	f.Fuzz(func(t *testing.T, src, dst uint16, proto, hopLimit byte, seq uint16, payload []byte) {
		a := NewAdaptation(Config{})
		d := &Datagram{
			Src:      radio.NodeID(src),
			Dst:      radio.NodeID(dst),
			Proto:    Proto(proto),
			HopLimit: hopLimit,
			Seq:      seq,
			Payload:  payload,
		}
		frames, err := encodeBytes(a, d)
		if err != nil {
			if err == ErrTooLarge {
				return // oversized payloads are rejected by contract
			}
			t.Fatalf("Encode: %v", err)
		}
		var got *Datagram
		for i, fr := range frames {
			g, err := a.Feed(0, radio.NodeID(src), fr)
			if err != nil {
				t.Fatalf("Feed frame %d/%d: %v", i+1, len(frames), err)
			}
			if g != nil {
				if i != len(frames)-1 {
					t.Fatalf("reassembly completed at frame %d of %d", i+1, len(frames))
				}
				got = g
			}
		}
		if got == nil {
			t.Fatalf("no datagram after %d frames", len(frames))
		}
		if got.Src != d.Src || got.Dst != d.Dst || got.Proto != d.Proto ||
			got.HopLimit != d.HopLimit || got.Seq != d.Seq {
			t.Fatalf("header mismatch: sent %+v got %+v", d, got)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload mismatch: sent %d bytes, got %d", len(payload), len(got.Payload))
		}
	})
}

// FuzzFeedArbitrary throws raw bytes at the frame parser: it must reject
// or reassemble without panicking or allocating past MaxDatagramSize,
// whatever arrives from the radio.
func FuzzFeedArbitrary(f *testing.F) {
	// Seeds: a valid unfragmented frame, a valid FRAG1, truncated
	// variants, hostile size/offset fields, and an unfragmented frame
	// carrying the retired padded header (version 0x01, 40 bytes).
	a := NewAdaptation(Config{})
	frames, err := encodeBytes(a, &Datagram{Src: 1, Dst: 2, Proto: ProtoCoAP, Payload: make([]byte, 300)})
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{dispUnfrag})
	f.Add([]byte{dispFrag1, 0xFF, 0xFF, 0, 1})
	f.Add([]byte{dispFragN, 0xFF, 0xFF, 0, 1, 0xFF})
	padded := make([]byte, 1+40+8)
	padded[0], padded[1] = dispUnfrag, 0x01
	f.Add(padded)

	f.Fuzz(func(t *testing.T, frame []byte) {
		a := NewAdaptation(Config{})
		d, err := a.Feed(0, 1, frame)
		if err != nil {
			return
		}
		if d != nil && len(d.Payload) > MaxDatagramSize {
			t.Fatalf("reassembled %d bytes > MaxDatagramSize", len(d.Payload))
		}
	})
}
