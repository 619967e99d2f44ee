package lowpan

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
)

// encodeBytes adapts buffer-based Encode for tests that inspect frames
// as plain byte slices: it copies each frame out and releases the
// pooled buffers.
func encodeBytes(a *Adaptation, d *Datagram) ([][]byte, error) {
	bufs, err := a.Encode(d, nil)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, len(bufs))
	for i, b := range bufs {
		frames[i] = netbuf.CloneBytes(b.Bytes())
		b.Release()
	}
	return frames, nil
}

func roundTrip(t *testing.T, a *Adaptation, d *Datagram) *Datagram {
	t.Helper()
	frames, err := encodeBytes(a, d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out *Datagram
	for i, f := range frames {
		got, err := a.Feed(0, d.Src, f)
		if err != nil {
			t.Fatalf("Feed frame %d: %v", i, err)
		}
		if got != nil {
			if i != len(frames)-1 {
				t.Fatalf("datagram completed early at frame %d/%d", i, len(frames))
			}
			out = got
		}
	}
	if out == nil {
		t.Fatal("datagram never completed")
	}
	return out
}

func equal(a, b *Datagram) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Proto == b.Proto &&
		a.HopLimit == b.HopLimit && a.Seq == b.Seq && bytes.Equal(a.Payload, b.Payload)
}

func TestSingleFrameRoundTrip(t *testing.T) {
	a := NewAdaptation(Config{})
	d := &Datagram{Src: 3, Dst: 9, Proto: ProtoCoAP, HopLimit: 16, Seq: 77, Payload: []byte("small")}
	got := roundTrip(t, a, d)
	if !equal(d, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", d, got)
	}
}

func TestFragmentedRoundTrip(t *testing.T) {
	a := NewAdaptation(Config{})
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i)
	}
	d := &Datagram{Src: 1, Dst: 2, Proto: ProtoGossip, HopLimit: 8, Seq: 1, Payload: payload}
	frames, err := encodeBytes(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 7 {
		t.Fatalf("700-byte datagram produced only %d frames at MTU 100", len(frames))
	}
	for _, f := range frames {
		if len(f) > 100 {
			t.Fatalf("frame exceeds MTU: %d bytes", len(f))
		}
	}
	got := roundTrip(t, a, d)
	if !equal(d, got) {
		t.Fatal("fragmented round trip mismatch")
	}
}

func TestOutOfOrderFragments(t *testing.T) {
	a := NewAdaptation(Config{})
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	d := &Datagram{Src: 4, Dst: 5, Proto: ProtoRaw, Seq: 9, Payload: payload}
	frames, err := encodeBytes(a, d)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse delivery order.
	var got *Datagram
	for i := len(frames) - 1; i >= 0; i-- {
		g, err := a.Feed(0, 4, frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
		}
	}
	if got == nil || !equal(d, got) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestDuplicateFragmentsHarmless(t *testing.T) {
	a := NewAdaptation(Config{})
	payload := make([]byte, 250)
	d := &Datagram{Src: 1, Dst: 2, Proto: ProtoRaw, Payload: payload}
	frames, _ := encodeBytes(a, d)
	if _, err := a.Feed(0, 1, frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(0, 1, frames[0]); err != nil { // dup
		t.Fatal(err)
	}
	var got *Datagram
	for _, f := range frames[1:] {
		g, err := a.Feed(0, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
		}
	}
	if got == nil || !equal(d, got) {
		t.Fatal("duplicate fragment broke reassembly")
	}
}

func TestInterleavedSourcesDoNotMix(t *testing.T) {
	a := NewAdaptation(Config{})
	mk := func(fill byte) *Datagram {
		p := make([]byte, 300)
		for i := range p {
			p[i] = fill
		}
		return &Datagram{Src: 1, Dst: 2, Proto: ProtoRaw, Payload: p}
	}
	d1, d2 := mk(0xAA), mk(0xBB)
	f1, _ := encodeBytes(a, d1)
	f2, _ := encodeBytes(a, d2)
	// Interleave frames from two different link neighbors (7 and 8).
	var got1, got2 *Datagram
	for i := 0; i < len(f1) || i < len(f2); i++ {
		if i < len(f1) {
			if g, _ := a.Feed(0, 7, f1[i]); g != nil {
				got1 = g
			}
		}
		if i < len(f2) {
			if g, _ := a.Feed(0, 8, f2[i]); g != nil {
				got2 = g
			}
		}
	}
	if got1 == nil || got2 == nil {
		t.Fatal("interleaved reassembly incomplete")
	}
	if got1.Payload[0] != 0xAA || got2.Payload[0] != 0xBB {
		t.Fatal("interleaved reassembly mixed payloads")
	}
}

func TestReassemblyExpiry(t *testing.T) {
	a := NewAdaptation(Config{ReassemblyTimeout: time.Second})
	payload := make([]byte, 300)
	d := &Datagram{Src: 1, Dst: 2, Proto: ProtoRaw, Payload: payload}
	frames, _ := encodeBytes(a, d)
	if _, err := a.Feed(0, 1, frames[0]); err != nil {
		t.Fatal(err)
	}
	if a.PendingReassemblies() != 1 {
		t.Fatal("no pending reassembly")
	}
	// Past the timeout, remaining fragments start a fresh (incomplete)
	// buffer rather than completing the stale one.
	got, err := a.Feed(2*time.Second, 1, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("stale reassembly completed after expiry")
	}
}

// TestCompressionSavesBytes pins what the compressed header buys on the
// air: an 80-byte CoAP datagram goes out as one 90-byte frame (dispatch
// byte, 9-byte header, payload), where a 40-byte IPv6 header would not
// fit the default 100-byte MTU and would need two fragments.
func TestCompressionSavesBytes(t *testing.T) {
	const ipv6HeaderLen = 40
	a := NewAdaptation(Config{})
	d := &Datagram{Src: 1, Dst: 2, Proto: ProtoCoAP, Payload: make([]byte, 80)}
	frames, err := encodeBytes(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || len(frames[0]) != 90 {
		sizes := make([]int, len(frames))
		for i, f := range frames {
			sizes[i] = len(f)
		}
		t.Fatalf("80-byte datagram went on the air as frames %v, want one of 90 bytes", sizes)
	}
	if 1+ipv6HeaderLen+len(d.Payload) <= a.cfg.MTU {
		t.Fatal("an IPv6-size header would fit the same frame; the test no longer shows a saving")
	}
}

// TestPaddedHeaderRefused feeds the retired padded header, whose version
// byte is 0x01: the decoder accepts only the 9-byte form, so the
// datagram is refused whether it arrives whole or in fragments, and no
// reassembly state is left behind.
func TestPaddedHeaderRefused(t *testing.T) {
	a := NewAdaptation(Config{})
	padded := make([]byte, 1+40+20)
	padded[0], padded[1] = dispUnfrag, 0x01
	if _, err := a.Feed(0, 1, padded); err == nil {
		t.Fatal("unfragmented frame with the padded header accepted")
	}
	frames, err := encodeBytes(a, &Datagram{Src: 1, Dst: 2, Proto: ProtoCoAP, Payload: make([]byte, 300)})
	if err != nil {
		t.Fatal(err)
	}
	frames[0][frag1HeaderLen] = 0x01 // the datagram header's version byte
	for _, f := range frames {
		if _, err = a.Feed(0, 1, f); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("fragmented datagram with the padded header's version byte accepted")
	}
	if n := a.PendingReassemblies(); n != 0 {
		t.Fatalf("refused datagram left %d reassemblies pending", n)
	}
}

func TestTooLarge(t *testing.T) {
	a := NewAdaptation(Config{})
	d := &Datagram{Payload: make([]byte, MaxDatagramSize+1)}
	if _, err := encodeBytes(a, d); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestGarbageFrames(t *testing.T) {
	a := NewAdaptation(Config{})
	for _, frame := range [][]byte{
		nil,
		{},
		{0xFF, 1, 2},
		{dispUnfrag},
		{dispFrag1, 0},
		{dispFragN, 0, 0, 0, 0},
	} {
		if _, err := a.Feed(0, 1, frame); err == nil {
			t.Errorf("garbage frame %v accepted", frame)
		}
	}
}

func TestFragmentOverrunRejected(t *testing.T) {
	a := NewAdaptation(Config{})
	// FRAGN claiming size 16 with offset 8 and 100 bytes of chunk.
	f := make([]byte, fragNHeaderLen+100)
	f[0] = dispFragN
	f[1], f[2] = 0, 16
	f[3], f[4] = 0, 1
	f[5] = 1
	if _, err := a.Feed(0, 1, f); err == nil {
		t.Fatal("overrunning fragment accepted")
	}
}

func TestPropertyRoundTripAnyPayload(t *testing.T) {
	a := NewAdaptation(Config{})
	f := func(src, dst uint16, proto, hop byte, seq uint16, payload []byte) bool {
		if len(payload) > MaxDatagramSize-headerLen {
			payload = payload[:MaxDatagramSize-headerLen]
		}
		d := &Datagram{
			Src: int16ID(src), Dst: int16ID(dst), Proto: Proto(proto),
			HopLimit: hop, Seq: seq, Payload: payload,
		}
		frames, err := encodeBytes(a, d)
		if err != nil {
			return false
		}
		var got *Datagram
		for _, fr := range frames {
			g, err := a.Feed(0, d.Src, fr)
			if err != nil {
				return false
			}
			if g != nil {
				got = g
			}
		}
		return got != nil && equal(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMTUTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptation(Config{MTU: 4})
}

// int16ID maps an arbitrary uint16 into the NodeID space used on the wire.
func int16ID(v uint16) radio.NodeID { return radio.NodeID(v) }

// TestEvictionThenRetransmitCompletes exercises the full eviction path:
// a partial reassembly times out, is evicted by the next Feed, and a
// complete retransmission of the same (source, tag) datagram then
// reassembles from a fresh buffer rather than inheriting stale bitmap
// state from the evicted one.
func TestEvictionThenRetransmitCompletes(t *testing.T) {
	a := NewAdaptation(Config{ReassemblyTimeout: time.Second})
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	d := &Datagram{Src: 4, Dst: 2, Proto: ProtoRaw, Seq: 9, Payload: payload}
	frames, err := encodeBytes(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(0, d.Src, frames[0]); err != nil {
		t.Fatal(err)
	}
	if a.PendingReassemblies() != 1 {
		t.Fatal("no pending reassembly")
	}
	// Retransmit the whole datagram after the timeout. The first frame's
	// Feed both evicts the stale buffer and starts the new one.
	var got *Datagram
	for _, f := range frames {
		g, err := a.Feed(5*time.Second, d.Src, f)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
		}
	}
	if got == nil {
		t.Fatal("retransmission never completed")
	}
	if !equal(d, got) {
		t.Fatal("retransmitted datagram corrupted by evicted state")
	}
	if a.PendingReassemblies() != 0 {
		t.Fatal("completed reassembly not released")
	}
}

// TestTagReuseDifferentSizeRestarts covers the sender wrapping its tag
// counter while a stale partial under the same tag is still buffered:
// the mismatched size must restart the buffer, and the new datagram must
// reassemble cleanly.
func TestTagReuseDifferentSizeRestarts(t *testing.T) {
	a := NewAdaptation(Config{})
	old := &Datagram{Src: 7, Dst: 2, Proto: ProtoRaw, Payload: make([]byte, 500)}
	oldFrames, err := encodeBytes(a, old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Feed(0, old.Src, oldFrames[0]); err != nil {
		t.Fatal(err)
	}

	// Same tag, different size: a fresh Adaptation re-issues tag 1.
	b := NewAdaptation(Config{})
	payload := make([]byte, 260)
	for i := range payload {
		payload[i] = byte(255 - i)
	}
	next := &Datagram{Src: 7, Dst: 2, Proto: ProtoRaw, Seq: 1, Payload: payload}
	nextFrames, err := encodeBytes(b, next)
	if err != nil {
		t.Fatal(err)
	}
	var got *Datagram
	for _, f := range nextFrames {
		g, err := a.Feed(0, next.Src, f)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
		}
	}
	if got == nil {
		t.Fatal("reused tag never completed")
	}
	if !equal(next, got) {
		t.Fatal("reused tag reassembled corrupted datagram")
	}
}

// TestMaxSizeDatagramUsesTopBitmapSlot reassembles a MaxDatagramSize
// datagram, driving the fragment bitmap to its highest slot.
func TestMaxSizeDatagramUsesTopBitmapSlot(t *testing.T) {
	a := NewAdaptation(Config{})
	payload := make([]byte, MaxDatagramSize-headerLen)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	d := &Datagram{Src: 1, Dst: 2, Proto: ProtoRaw, Payload: payload}
	got := roundTrip(t, a, d)
	if !equal(d, got) {
		t.Fatal("max-size round trip mismatch")
	}
}
