package mac

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

func TestFrameDecodeRoundTrip(t *testing.T) {
	f := func(kind byte, seq uint16, payload []byte) bool {
		b := netbuf.FromBytes(payload)
		frame(b, Kind(kind), seq)
		k, s, p, err := decode(b.Bytes())
		return err == nil && k == Kind(kind) && s == seq && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	if _, _, _, err := decode([]byte{1, 2}); err == nil {
		t.Fatal("expected error on short frame")
	}
}

func TestDedup(t *testing.T) {
	d := newDedup()
	if !d.fresh(1, 10) {
		t.Fatal("first frame should be fresh")
	}
	if d.fresh(1, 10) {
		t.Fatal("duplicate should not be fresh")
	}
	if !d.fresh(1, 11) {
		t.Fatal("new seq should be fresh")
	}
	if !d.fresh(2, 11) {
		t.Fatal("same seq from other node should be fresh")
	}
}

// buildPair returns a kernel, medium, and two started MACs within range.
func buildPair(mk func(m *radio.Medium, id radio.NodeID) MAC) (*sim.Kernel, *radio.Medium, MAC, MAC) {
	k := sim.New(7)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var a, b MAC
	m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { a.(radio.Receiver).RadioReceive(f) }))
	m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(f radio.Frame) { b.(radio.Receiver).RadioReceive(f) }))
	a = mk(m, 1)
	b = mk(m, 2)
	a.Start()
	b.Start()
	return k, m, a, b
}

func TestCSMAUnicastDelivery(t *testing.T) {
	k, _, a, b := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewCSMA(m, id, CSMAConfig{})
	})
	var got []byte
	var from radio.NodeID
	b.OnReceive(func(f radio.NodeID, p []byte) { from, got = f, p })
	delivered := false
	a.Send(2, []byte("reading:42"), func(ok bool) { delivered = ok })
	k.RunFor(time.Second)
	if !delivered {
		t.Fatal("send not acknowledged")
	}
	if from != 1 || string(got) != "reading:42" {
		t.Fatalf("got %q from %d", got, from)
	}
}

func TestCSMABroadcast(t *testing.T) {
	k := sim.New(7)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*CSMA, 3)
	for i := range macs {
		id := radio.NodeID(i + 1)
		idx := i
		m.Attach(id, radio.Position{X: float64(i) * 5}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = NewCSMA(m, id, CSMAConfig{})
		macs[i].Start()
	}
	got := 0
	macs[1].OnReceive(func(radio.NodeID, []byte) { got++ })
	macs[2].OnReceive(func(radio.NodeID, []byte) { got++ })
	ok := false
	macs[0].Send(radio.Broadcast, []byte("hello"), func(b bool) { ok = b })
	k.RunFor(time.Second)
	if !ok || got != 2 {
		t.Fatalf("broadcast delivered to %d nodes (ok=%v), want 2", got, ok)
	}
}

func TestCSMAFailsOnDeadLink(t *testing.T) {
	k, m, a, _ := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewCSMA(m, id, CSMAConfig{})
	})
	m.SetLinkPRR(1, 2, 0)
	result := true
	a.Send(2, []byte("x"), func(ok bool) { result = ok })
	k.RunFor(5 * time.Second)
	if result {
		t.Fatal("send over dead link reported success")
	}
	if m.Registry().CounterWith("mac.retries", metrics.L("mac", "csma")).Value() == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestCSMARecoversFromLoss(t *testing.T) {
	k, m, a, b := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewCSMA(m, id, CSMAConfig{Config: Config{MaxRetries: 10}})
	})
	m.SetLinkPRR(1, 2, 0.5)
	okCount, rx := 0, 0
	b.OnReceive(func(radio.NodeID, []byte) { rx++ })
	for i := 0; i < 20; i++ {
		a.Send(2, []byte{byte(i)}, func(ok bool) {
			if ok {
				okCount++
			}
		})
	}
	k.RunFor(time.Minute)
	if okCount < 18 {
		t.Fatalf("only %d/20 delivered over 50%% lossy link with ARQ", okCount)
	}
	if rx < okCount {
		t.Fatalf("receiver saw %d, acks claim %d", rx, okCount)
	}
}

func TestCSMADedupOnRetransmit(t *testing.T) {
	// Break the ACK path so the sender retransmits, and verify the
	// receiver's handler fires once.
	k, m, a, b := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewCSMA(m, id, CSMAConfig{})
	})
	m.SetLinkPRR(2, 1, 0) // data gets through, ACKs are lost
	got := 0
	b.OnReceive(func(radio.NodeID, []byte) { got++ })
	a.Send(2, []byte("x"), nil)
	k.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("handler fired %d times, want 1 (dedup)", got)
	}
}

func TestCSMASendAfterStopFails(t *testing.T) {
	_, _, a, _ := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewCSMA(m, id, CSMAConfig{})
	})
	a.Stop()
	called, result := false, true
	a.Send(2, []byte("x"), func(ok bool) { called, result = true, ok })
	if !called || result {
		t.Fatal("send after stop must fail immediately")
	}
}

func TestLPLUnicastWithinWakeInterval(t *testing.T) {
	const wake = 500 * time.Millisecond
	k, _, a, b := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewLPL(m, id, LPLConfig{WakeInterval: wake})
	})
	var deliveredAt sim.Time
	b.OnReceive(func(radio.NodeID, []byte) { deliveredAt = k.Now() })
	// Let wake schedules settle, then send.
	var sentAt sim.Time
	ok := false
	k.Schedule(2*time.Second, func() {
		sentAt = k.Now()
		a.Send(2, []byte("x"), func(r bool) { ok = r })
	})
	k.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("LPL unicast not acknowledged")
	}
	lat := deliveredAt - sentAt
	if lat <= 0 || lat > wake+100*time.Millisecond {
		t.Fatalf("latency %v outside (0, wake+margin]", lat)
	}
}

func TestLPLDutyCycleLow(t *testing.T) {
	k, m, _, _ := buildPair(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewLPL(m, id, LPLConfig{WakeInterval: 500 * time.Millisecond})
	})
	k.RunFor(60 * time.Second)
	// Idle node: ~5ms check per 500ms wake ≈ 1% duty cycle. The ledger
	// only counts accounted time, so compare listen time to sim time.
	on := m.Energy().Ledger(2).Duration(1) // StateListen
	frac := float64(on) / float64(60*time.Second)
	if frac > 0.03 {
		t.Fatalf("idle LPL listen fraction %v, want ≈0.01", frac)
	}
	if on == 0 {
		t.Fatal("no channel checks accounted")
	}
}

func TestLPLBroadcastReachesNeighbors(t *testing.T) {
	k := sim.New(3)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*LPL, 3)
	for i := range macs {
		id := radio.NodeID(i + 1)
		idx := i
		m.Attach(id, radio.Position{X: float64(i) * 5}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = NewLPL(m, id, LPLConfig{WakeInterval: 200 * time.Millisecond})
		macs[i].Start()
	}
	got := map[int]bool{}
	macs[1].OnReceive(func(radio.NodeID, []byte) { got[1] = true })
	macs[2].OnReceive(func(radio.NodeID, []byte) { got[2] = true })
	k.Schedule(time.Second, func() { macs[0].Send(radio.Broadcast, []byte("evt"), nil) })
	k.RunFor(3 * time.Second)
	if !got[1] || !got[2] {
		t.Fatalf("broadcast strobe missed receivers: %v", got)
	}
}

func TestLPLEnergyFarBelowCSMA(t *testing.T) {
	run := func(mk func(m *radio.Medium, id radio.NodeID) MAC) float64 {
		k, m, a, _ := buildPair(mk)
		k.Every(10*time.Second, 0, func() { a.Send(2, []byte("periodic"), nil) })
		k.RunFor(5 * time.Minute)
		return m.Energy().Ledger(2).TotalJoules()
	}
	csma := run(func(m *radio.Medium, id radio.NodeID) MAC { return NewCSMA(m, id, CSMAConfig{}) })
	lpl := run(func(m *radio.Medium, id radio.NodeID) MAC {
		return NewLPL(m, id, LPLConfig{WakeInterval: 500 * time.Millisecond})
	})
	if lpl*5 > csma {
		t.Fatalf("LPL receiver energy %v J not ≪ CSMA %v J", lpl, csma)
	}
}

// TestCSMAStopChargesPartialSecond: idle listening accrues once per
// second, and Stop charges the part of a second since the last tick — a
// node that listened for 2.9 s reads 2.9 s, not 2 s.
func TestCSMAStopChargesPartialSecond(t *testing.T) {
	k, m, a, _ := buildPair(func(m *radio.Medium, id radio.NodeID) MAC { return NewCSMA(m, id, CSMAConfig{}) })
	k.RunFor(2900 * time.Millisecond)
	a.Stop()
	k.RunFor(5 * time.Second) // a stopped node accrues nothing more
	if got, want := m.Energy().Ledger(1).Duration(metrics.StateListen), 2900*time.Millisecond; got != want {
		t.Fatalf("listening after start at 0 and stop at 2.9 s: %v, want %v", got, want)
	}
}

func TestTDMAPipelineChain(t *testing.T) {
	// 5-hop chain: node 5 → 4 → 3 → 2 → 1 (root). Slot i is owned by the
	// node at depth maxDepth-i, so the packet rides one epoch to the root.
	const n = 5
	const slot = 10 * time.Millisecond
	k := sim.New(9)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*TDMA, n+1) // 1-based
	for i := 1; i <= n; i++ {
		id := radio.NodeID(i)
		idx := i
		m.Attach(id, radio.Position{X: float64(i) * 10}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
	}
	// depth(node i) = i-1 relative to root node 1; maxDepth = 4.
	maxDepth := n - 1
	for i := 1; i <= n; i++ {
		depth := i - 1
		tx := maxDepth - depth
		var rx []int
		if i < n { // listens to child i+1, whose txSlot is maxDepth-(i)
			rx = []int{maxDepth - i}
		}
		cfg := TDMAConfig{SlotDuration: slot, SlotsPerEpoch: n, TxSlot: tx, RxSlots: rx}
		if i == 1 {
			cfg.TxSlot = -1 // root never transmits
		}
		macs[i] = NewTDMA(m, radio.NodeID(i), cfg)
		macs[i].Start()
	}
	// Forwarding: node i hands to i-1.
	for i := 2; i < n; i++ {
		i := i
		macs[i].OnReceive(func(_ radio.NodeID, p []byte) {
			macs[i].Send(radio.NodeID(i-1), p, nil)
		})
	}
	var arrival sim.Time
	macs[1].OnReceive(func(_ radio.NodeID, p []byte) {
		if string(p) == "leaf-report" && arrival == 0 {
			arrival = k.Now()
		}
	})
	var origin sim.Time
	k.Schedule(time.Millisecond, func() {
		origin = k.Now()
		macs[n].Send(radio.NodeID(n-1), []byte("leaf-report"), nil)
	})
	k.RunFor(2 * time.Second)
	if arrival == 0 {
		t.Fatal("packet never reached root")
	}
	lat := arrival - origin
	epoch := time.Duration(n) * slot
	if lat > 2*epoch {
		t.Fatalf("pipeline latency %v exceeds 2 epochs (%v)", lat, 2*epoch)
	}
}

func TestTDMARetriesAcrossEpochs(t *testing.T) {
	k := sim.New(11)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var a, b *TDMA
	m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { a.RadioReceive(f) }))
	m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(f radio.Frame) { b.RadioReceive(f) }))
	a = NewTDMA(m, 1, TDMAConfig{Config: Config{MaxRetries: 8}, SlotsPerEpoch: 4, TxSlot: 0})
	b = NewTDMA(m, 2, TDMAConfig{SlotsPerEpoch: 4, TxSlot: -1, RxSlots: []int{0}})
	a.Start()
	b.Start()
	m.SetLinkPRR(1, 2, 0.5)
	got := 0
	b.OnReceive(func(radio.NodeID, []byte) { got++ })
	delivered := false
	a.Send(2, []byte("x"), func(ok bool) { delivered = ok })
	k.RunFor(10 * time.Second)
	if !delivered || got != 1 {
		t.Fatalf("delivered=%v got=%d over lossy link with epoch retries", delivered, got)
	}
}

func TestTDMASendWithoutTxSlotFails(t *testing.T) {
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var root *TDMA
	m.Attach(1, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { root.RadioReceive(f) }))
	root = NewTDMA(m, 1, TDMAConfig{SlotsPerEpoch: 4, TxSlot: -1})
	root.Start()
	ok := true
	root.Send(2, []byte("x"), func(r bool) { ok = r })
	if ok {
		t.Fatal("root with no tx slot accepted a send")
	}
}

func TestTDMAInvalidSlotPanics(t *testing.T) {
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	m.Attach(1, radio.Position{}, radio.ReceiverFunc(func(radio.Frame) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTDMA(m, 1, TDMAConfig{SlotsPerEpoch: 4, TxSlot: 9})
}

func TestMACNames(t *testing.T) {
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	m.Attach(1, radio.Position{}, radio.ReceiverFunc(func(radio.Frame) {}))
	if got := NewCSMA(m, 1, CSMAConfig{}).Name(); got != "csma" {
		t.Errorf("csma Name() = %q", got)
	}
	if got := NewLPL(m, 1, LPLConfig{}).Name(); got != "lpl" {
		t.Errorf("lpl Name() = %q", got)
	}
	if got := NewTDMA(m, 1, TDMAConfig{}).Name(); got != "tdma" {
		t.Errorf("tdma Name() = %q", got)
	}
}
