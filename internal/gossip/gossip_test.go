package gossip

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// counterState is a grow-only counter as a gossip.State — the
// degenerate state-based case: one count per replica, merged by max,
// nothing to summarize, and the whole counter is the delta.
type counterState struct {
	counts map[string]uint64
}

func newCounterState() *counterState { return &counterState{counts: map[string]uint64{}} }

func (s *counterState) add(id string, n uint64) { s.counts[id] += n }

func (s *counterState) value() uint64 {
	var v uint64
	for _, n := range s.counts {
		v += n
	}
	return v
}

func (s *counterState) Summary(dst []byte) []byte { return dst }

// The delta is uvarint(n) ( uvarint(len id) id uvarint(count) )*n.
func (s *counterState) Delta(dst []byte, _ string, _ []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(s.counts)))
	for id, n := range s.counts {
		dst = binary.AppendUvarint(dst, uint64(len(id)))
		dst = append(dst, id...)
		dst = binary.AppendUvarint(dst, n)
	}
	return dst, nil
}

func (s *counterState) Merge(remote []byte) error {
	bad := false
	next := func() uint64 {
		v, n := binary.Uvarint(remote)
		if n <= 0 {
			bad, n = true, len(remote)
		}
		remote = remote[n:]
		return v
	}
	other := map[string]uint64{}
	for n := next(); n > 0 && !bad; n-- {
		idLen := next()
		if idLen > uint64(len(remote)) {
			return errors.New("truncated counter delta")
		}
		id := string(remote[:idLen])
		remote = remote[idLen:]
		other[id] = next()
	}
	if bad {
		return errors.New("truncated counter delta")
	}
	for id, n := range other {
		s.counts[id] = max(s.counts[id], n)
	}
	return nil
}

func TestEnginesConverge(t *testing.T) {
	k := sim.New(5)
	net := NewNetwork()
	const n = 5
	states := make([]*counterState, n)
	engines := make([]*Engine, n)
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		states[i] = newCounterState()
		engines[i] = New(net.Attach(names[i]), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)})
		engines[i].Start()
	}
	// Each replica increments locally.
	for i := 0; i < n; i++ {
		states[i].add(names[i], uint64(i+1))
	}
	k.RunFor(30 * time.Second)
	want := uint64(1 + 2 + 3 + 4 + 5)
	for i, s := range states {
		if got := s.value(); got != want {
			t.Fatalf("replica %d = %d, want %d", i, got, want)
		}
	}
	if engines[0].RoundsRun == 0 || engines[0].BytesSent == 0 {
		t.Fatal("engine stats not recorded")
	}
}

func TestPartitionBlocksThenHealConverges(t *testing.T) {
	k := sim.New(6)
	net := NewNetwork()
	names := []string{"a", "b", "c", "d"}
	states := make([]*counterState, len(names))
	for i, name := range names {
		states[i] = newCounterState()
		New(net.Attach(name), clock.Kernel{K: k}, states[i],
			Config{Interval: time.Second, Seed: int64(i + 1)}).Start()
	}
	net.SetPartition([]string{"a", "b"}, []string{"c", "d"})
	states[0].add("a", 10)
	states[2].add("c", 100)
	k.RunFor(20 * time.Second)
	if v := states[1].value(); v != 10 {
		t.Fatalf("same-side replica b = %d, want 10", v)
	}
	if v := states[0].value(); v != 10 {
		t.Fatalf("partition leaked: a = %d", v)
	}
	if net.Dropped == 0 {
		t.Fatal("no messages dropped by partition")
	}
	net.Heal()
	k.RunFor(30 * time.Second)
	for i, s := range states {
		if got := s.value(); got != 110 {
			t.Fatalf("replica %d = %d after heal, want 110", i, got)
		}
	}
}

func TestStopHaltsRounds(t *testing.T) {
	k := sim.New(7)
	net := NewNetwork()
	s := newCounterState()
	e := New(net.Attach("a"), clock.Kernel{K: k}, s, Config{Interval: time.Second})
	net.Attach("b").SetReceiver(func(string, []byte) {})
	e.Start()
	k.RunFor(5 * time.Second)
	rounds := e.RoundsRun
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	e.Stop()
	k.RunFor(time.Minute)
	if e.RoundsRun != rounds {
		t.Fatal("rounds continued after Stop")
	}
	e.Start() // restart works
	k.RunFor(5 * time.Second)
	if e.RoundsRun == rounds {
		t.Fatal("restart did not resume rounds")
	}
}

func TestMalformedGossipIgnored(t *testing.T) {
	k := sim.New(8)
	net := NewNetwork()
	s := newCounterState()
	e := New(net.Attach("a"), clock.Kernel{K: k}, s, Config{Interval: time.Second})
	e.Start()
	rogue := net.Attach("rogue")
	rogue.SetReceiver(func(string, []byte) {})
	// Not a frame; a truncated ack; well-formed fin and ack frames whose
	// delta is garbage: all must be harmless, and all must be counted.
	for _, frame := range [][]byte{
		[]byte("not a frame"),
		{frameMagic, kindAck, 9, 'x'},
		append([]byte{frameMagic, kindFin}, "garbage"...),
		append([]byte{frameMagic, kindAck, 0}, "garbage"...),
	} {
		if err := rogue.Send("a", frame); err != nil {
			t.Fatal(err)
		}
	}
	k.RunFor(5 * time.Second)
	if s.value() != 0 {
		t.Fatal("garbage mutated state")
	}
	if e.Rejected != 4 {
		t.Fatalf("Rejected = %d, want 4", e.Rejected)
	}
}

func TestNetworkUnknownPeer(t *testing.T) {
	net := NewNetwork()
	p := net.Attach("a")
	if err := p.Send("ghost", []byte("x")); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	net := NewNetwork()
	net.Attach("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach("a")
}

func TestPeersSortedAndExcludesSelf(t *testing.T) {
	net := NewNetwork()
	a := net.Attach("a")
	net.Attach("c")
	net.Attach("b")
	got := a.Peers()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Peers = %v", got)
	}
}
