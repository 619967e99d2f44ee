package link

import (
	"testing"
	"time"

	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// pair builds two linked CSMA nodes 10 m apart.
func pair(t *testing.T) (*sim.Kernel, *radio.Medium, *Link, *Link) {
	t.Helper()
	k := sim.New(21)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var m1, m2 *mac.CSMA
	m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { m1.RadioReceive(f) }))
	m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(f radio.Frame) { m2.RadioReceive(f) }))
	m1 = mac.NewCSMA(m, 1, mac.CSMAConfig{})
	m2 = mac.NewCSMA(m, 2, mac.CSMAConfig{})
	m1.Start()
	m2.Start()
	return k, m, New(1, m1), New(2, m2)
}

func TestProtocolDemux(t *testing.T) {
	k, _, l1, l2 := pair(t)
	var gotNet, gotApp []byte
	l2.Handle(ProtoNet, func(_ radio.NodeID, p []byte) { gotNet = p })
	l2.Handle(ProtoApp, func(_ radio.NodeID, p []byte) { gotApp = p })
	l1.Send(2, ProtoNet, []byte("n"), nil)
	l1.Send(2, ProtoApp, []byte("a"), nil)
	k.RunFor(time.Second)
	if string(gotNet) != "n" || string(gotApp) != "a" {
		t.Fatalf("demux wrong: net=%q app=%q", gotNet, gotApp)
	}
}

func TestUnhandledProtocolDropped(t *testing.T) {
	k, _, l1, l2 := pair(t)
	_ = l2
	l1.Send(2, ProtoRouting, []byte("x"), nil) // no handler registered
	k.RunFor(time.Second)                      // must not panic
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, _, _, l2 := pair(t)
	l2.Handle(ProtoNet, func(radio.NodeID, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l2.Handle(ProtoNet, func(radio.NodeID, []byte) {})
}

func TestETXTracksLinkQuality(t *testing.T) {
	k, m, l1, _ := pair(t)
	m.SetLinkPRR(1, 2, 0.5)
	for i := 0; i < 50; i++ {
		l1.Send(2, ProtoApp, []byte{byte(i)}, nil)
	}
	k.RunFor(time.Minute)
	etx := l1.Neighbors().ETX(2)
	// With MAC retries most sends succeed; ETX should stay near 1, and
	// the entry must exist with transmissions recorded.
	e, ok := l1.Neighbors().Lookup(2)
	if !ok || e.TxCount == 0 {
		t.Fatal("no tx outcomes recorded")
	}
	if etx < 1 || etx > maxETX {
		t.Fatalf("ETX = %v out of range", etx)
	}
}

func TestETXDeadLinkPessimistic(t *testing.T) {
	k, m, l1, _ := pair(t)
	m.SetLinkPRR(1, 2, 0)
	m.SetLinkPRR(2, 1, 0)
	for i := 0; i < 10; i++ {
		l1.Send(2, ProtoApp, []byte{1}, nil)
	}
	k.RunFor(time.Minute)
	if etx := l1.Neighbors().ETX(2); etx < 4 {
		t.Fatalf("dead link ETX = %v, want pessimistic", etx)
	}
}

func TestRecordRxCreatesEntry(t *testing.T) {
	k, _, l1, l2 := pair(t)
	l2.Handle(ProtoApp, func(radio.NodeID, []byte) {})
	l1.Send(2, ProtoApp, []byte("x"), nil)
	k.RunFor(time.Second)
	e, ok := l2.Neighbors().Lookup(1)
	if !ok {
		t.Fatal("receiver did not record the sender as neighbor")
	}
	// Rx-only neighbor: the skeptical prior, ~1.43.
	if got := e.ETX(); got < 1.4 || got > 1.5 {
		t.Fatalf("rx-only ETX = %v, want ≈1/0.7", got)
	}
}

// TestTableOutOfOrderInserts fills the table in a scrambled order,
// forgets every third neighbour, and checks that each remaining one keeps
// its own estimate: entries are sorted by ID and moved on insert.
func TestTableOutOfOrderInserts(t *testing.T) {
	var tab Table
	for i := 0; i < 64; i++ {
		id := radio.NodeID(i * 37 % 64)
		for j := 0; j <= int(id)%4; j++ {
			tab.RecordTx(id, false)
		}
	}
	for id := radio.NodeID(0); id < 64; id += 3 {
		tab.Forget(id)
	}
	for id := radio.NodeID(0); id < 64; id++ {
		e, ok := tab.Lookup(id)
		if ok != (id%3 != 0) {
			t.Fatalf("neighbour %d present = %v", id, ok)
		}
		if ok && e.TxCount != uint32(id%4)+1 {
			t.Fatalf("neighbour %d TxCount = %d, want %d", id, e.TxCount, id%4+1)
		}
	}
}

func TestForget(t *testing.T) {
	var tab Table
	tab.RecordRx(3)
	tab.Forget(3)
	if _, ok := tab.Lookup(3); ok {
		t.Fatal("Forget did not remove entry")
	}
	if tab.ETX(3) != maxETX {
		t.Fatal("unknown neighbor should cost maxETX")
	}
}

func TestBroadcastDoesNotPolluteETX(t *testing.T) {
	k, _, l1, l2 := pair(t)
	l2.Handle(ProtoApp, func(radio.NodeID, []byte) {})
	l1.Broadcast(ProtoApp, []byte("b"))
	k.RunFor(time.Second)
	if _, ok := l1.Neighbors().Lookup(radio.Broadcast); ok {
		t.Fatal("broadcast outcome recorded as a neighbor")
	}
}

func TestEntryETXSingleFailureNotPegged(t *testing.T) {
	var tab Table
	tab.RecordTx(1, false)
	if etx := tab.ETX(1); etx >= maxETX {
		t.Fatalf("single failure ETX = %v, want < cap", etx)
	}
}
