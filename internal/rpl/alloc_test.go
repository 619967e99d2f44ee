package rpl

import (
	"testing"

	"iiotds/internal/link"
	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// TestKnownNeighbourReceiveAllocFree is the alloc gate of the receive
// path through the neighbour tables: once a node has heard its
// neighbours, a DIO from one of them (MAC dedup, link table, candidate
// update, parent reselection) and a duplicate data frame (dropped by
// the dedup test) must not touch the heap. Run without -race.
func TestKnownNeighbourReceiveAllocFree(t *testing.T) {
	k := sim.New(3)
	m := radio.NewMedium(k, radio.DefaultParams(), metrics.NewRegistry())
	var mc *mac.CSMA
	m.Attach(1, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { mc.RadioReceive(f) }))
	mc = mac.NewCSMA(m, 1, mac.CSMAConfig{})
	mc.Start()
	lnk := link.New(1, mc)
	lnk.Handle(link.ProtoApp, func(radio.NodeID, []byte) {})
	r := NewRouter(k, lnk, false, 0, Config{}, nil)

	frameOf := func(seq uint16, proto link.Protocol, body []byte) *radio.Frame {
		b := m.Buffers().Get()
		b.Append(data(seq, proto, body))
		return &radio.Frame{To: radio.Broadcast, Payload: b}
	}
	// Sixty neighbours advertise; 2..61 are all candidates, 2 the parent.
	for id := radio.NodeID(2); id < 62; id++ {
		f := frameOf(0, link.ProtoRouting, dio{Version: 1, Rank: 256 + 256*uint16(id%3), Root: 0}.encode())
		f.From = id
		mc.RadioReceive(*f)
		f.Payload.Release()
	}
	if r.Parent() == NoParent {
		t.Fatal("no parent after sixty DIOs")
	}
	dioFrame := frameOf(0, link.ProtoRouting, dio{Version: 1, Rank: 512, Root: 0}.encode())
	dioFrame.From = 31
	dup := frameOf(7, link.ProtoApp, []byte{1})
	dup.From = 40
	mc.RadioReceive(*dup) // the original; every later copy is a duplicate
	seq := uint16(0)
	round := func() {
		seq++ // a fresh sequence number, so the DIO reaches the router
		raw := dioFrame.Payload.Bytes()
		raw[1], raw[2] = byte(seq>>8), byte(seq)
		mc.RadioReceive(*dioFrame)
		mc.RadioReceive(*dup)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	parent, rank := r.Parent(), r.Rank()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a DIO from a known neighbour and a duplicate frame allocate %v times, want 0", allocs)
	}
	if r.Parent() != parent || r.Rank() != rank {
		t.Fatalf("parent/rank moved from %d/%d to %d/%d", parent, rank, r.Parent(), r.Rank())
	}
}
