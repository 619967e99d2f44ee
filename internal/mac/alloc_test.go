package mac

import (
	"testing"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// TestSendPathAllocFree is the alloc-regression gate for the zero-copy
// packet path (run in CI): one full acknowledged unicast round — Send
// copy-in, header prepend into headroom, radio flight, copy-on-fanout
// delivery, receive dispatch, ACK, sender completion — must not touch
// the heap once the pools are warm. Nor may it on a contended channel,
// where a neighbour's frame is in the air at the sender's first carrier
// sense and the send goes through the backoff path.
func TestSendPathAllocFree(t *testing.T) {
	for _, contended := range []bool{false, true} {
		k := sim.New(1)
		m := radio.NewMedium(k, radio.DefaultParams(), nil)
		macs := make([]*CSMA, 2)
		for i := 0; i < 2; i++ {
			idx := i
			m.Attach(radio.NodeID(i), radio.Position{X: float64(i) * 8}, radio.ReceiverFunc(func(f radio.Frame) {
				macs[idx].RadioReceive(f)
			}))
			macs[i] = NewCSMA(m, radio.NodeID(i), CSMAConfig{})
			macs[i].Start()
		}
		const jammer = radio.NodeID(2) // a bare radio in earshot of both
		m.Attach(jammer, radio.Position{X: 4, Y: 4}, radio.ReceiverFunc(func(radio.Frame) {}))
		delivered, backedOff := 0, 0
		macs[0].OnReceive(func(from radio.NodeID, p []byte) { delivered++ })
		payload := make([]byte, 64)
		var ok bool
		done := func(d bool) { ok = d }
		round := func() {
			ok = false
			if contended {
				// 4.4 ms on the air: longer than the longest initial backoff.
				m.Send(radio.Frame{From: jammer, To: radio.Broadcast, Size: 127})
			}
			macs[1].Send(0, payload, done)
			for !ok {
				k.RunFor(5 * time.Millisecond)
			}
			if macs[1].backoffExp > 1 {
				backedOff++
			}
		}
		// Warm the pools: packet buffers, transmission structs, queue
		// arrays, kernel event pool, energy ledgers.
		for i := 0; i < 10; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
			t.Fatalf("contended=%v: send path allocates %v times per round, want 0", contended, allocs)
		}
		if delivered == 0 {
			t.Fatalf("contended=%v: nothing delivered", contended)
		}
		if contended != (backedOff > 0) {
			t.Fatalf("contended=%v, yet %d rounds found the carrier busy", contended, backedOff)
		}
	}
}
