package gossip

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// TestExchangeLeavesBothSidesWithUnion: one round — syn, ack, fin, all
// inside the initiator's timer event — and both replicas hold both
// writes; a round between replicas that already agree sends no fin.
func TestExchangeLeavesBothSidesWithUnion(t *testing.T) {
	k := sim.New(3)
	net := NewNetwork()
	a, b := newLogState(), newLogState()
	ea := New(net.Attach("a"), clock.Kernel{K: k}, a, Config{Interval: time.Second})
	eb := New(net.Attach("b"), clock.Kernel{K: k}, b, Config{Interval: time.Second})
	a.write("a", 1)
	b.write("b", 2)
	ea.round()
	for name, s := range map[string]*logState{"a": a, "b": b} {
		if len(s.logs["a"]) != 1 || len(s.logs["b"]) != 1 {
			t.Fatalf("after one exchange %s holds %v", name, s.logs)
		}
	}
	if ea.BytesSent == 0 || eb.BytesSent == 0 {
		t.Fatalf("BytesSent = %d/%d: every frame handed to Send counts", ea.BytesSent, eb.BytesSent)
	}
	sentA := ea.BytesSent
	syn := len(a.Summary([]byte{frameMagic, kindSyn}))
	ea.round()
	if got := ea.BytesSent - sentA; got != syn {
		t.Fatalf("an idle round cost the initiator %d B, want its %d B syn and no fin", got, syn)
	}
	if a.adopted != 1 || b.adopted != 1 {
		t.Fatalf("adopted %d/%d elements, want 1/1", a.adopted, b.adopted)
	}
}

// FuzzGossipFrame: whatever a peer sends, the engine neither panics nor
// lets an unparseable frame reach the state, and the parts of a frame
// that parses re-assemble to a frame with the same parts.
func FuzzGossipFrame(f *testing.F) {
	src := newLogState()
	src.write("x", 7)
	delta, _ := src.Delta(nil, []byte("{}"))
	summary := src.Summary(nil)
	f.Add(append([]byte{frameMagic, kindSyn}, summary...))
	f.Add(append(append(binary.AppendUvarint([]byte{frameMagic, kindAck}, uint64(len(summary))), summary...), delta...))
	f.Add(append([]byte{frameMagic, kindFin}, delta...))
	f.Add([]byte{frameMagic, kindAck, 0xff, 0xff, 0xff, 0xff, 0x0f}) // summary length beyond the frame
	f.Add([]byte{frameMagic, 9})
	f.Add([]byte("not a frame"))
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.New(1)
		net := NewNetwork()
		s := newLogState()
		e := New(net.Attach("a"), clock.Kernel{K: k}, s, Config{})
		peer := net.Attach("peer")
		peer.SetReceiver(func(string, []byte) {})
		if err := peer.Send("a", data); err != nil {
			t.Fatal(err)
		}
		kind, summary, delta, err := parseFrame(data)
		if err != nil {
			if e.Rejected != 1 || len(s.logs) != 0 {
				t.Fatalf("unparseable frame: Rejected=%d state=%v", e.Rejected, s.logs)
			}
			return
		}
		frame := []byte{frameMagic, kind}
		if kind == kindAck {
			frame = binary.AppendUvarint(frame, uint64(len(summary)))
		}
		frame = append(append(frame, summary...), delta...)
		if again, s2, d2, err := parseFrame(frame); err != nil || again != kind || !bytes.Equal(s2, summary) || !bytes.Equal(d2, delta) {
			t.Fatalf("re-assembled frame parses differently: %v", err)
		}
	})
}
