package mac

import (
	"testing"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

func riPair(seed int64, interval time.Duration) (*sim.Kernel, *radio.Medium, *RIMAC, *RIMAC) {
	k := sim.New(seed)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var a, b *RIMAC
	m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { a.RadioReceive(f) }))
	m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(f radio.Frame) { b.RadioReceive(f) }))
	a = NewRIMAC(m, 1, RIMACConfig{BeaconInterval: interval})
	b = NewRIMAC(m, 2, RIMACConfig{BeaconInterval: interval})
	a.Start()
	b.Start()
	return k, m, a, b
}

func TestRIMACUnicastViaBeaconRendezvous(t *testing.T) {
	k, _, a, b := riPair(5, 500*time.Millisecond)
	var got []byte
	b.OnReceive(func(_ radio.NodeID, p []byte) { got = p })
	delivered := false
	var sentAt, gotAt sim.Time
	k.Schedule(2*time.Second, func() {
		sentAt = k.Now()
		a.Send(2, []byte("reading"), func(ok bool) {
			delivered = ok
			gotAt = k.Now()
		})
	})
	k.RunFor(10 * time.Second)
	if !delivered || string(got) != "reading" {
		t.Fatalf("delivered=%v got=%q", delivered, got)
	}
	// Rendezvous latency is bounded by roughly one beacon interval.
	if lat := gotAt - sentAt; lat > 700*time.Millisecond {
		t.Fatalf("latency %v exceeds ~one beacon interval", lat)
	}
}

func TestRIMACFailsWhenTargetSilent(t *testing.T) {
	k, m, a, b := riPair(6, 300*time.Millisecond)
	b.Stop() // no more beacons from 2
	_ = m
	result := true
	a.Send(2, []byte("x"), func(ok bool) { result = ok })
	k.RunFor(30 * time.Second)
	if result {
		t.Fatal("send to silent receiver reported success")
	}
}

func TestRIMACLowIdleDutyCycle(t *testing.T) {
	k, m, _, _ := riPair(7, 500*time.Millisecond)
	k.RunFor(2 * time.Minute)
	on := m.Energy().Ledger(2).RadioOn()
	frac := float64(on) / float64(k.Now())
	if frac > 0.05 {
		t.Fatalf("idle RI-MAC radio-on fraction = %v, want ≈dwell/Interval", frac)
	}
}

func TestRIMACBeaconsCostReceiverNotSender(t *testing.T) {
	k, m, _, _ := riPair(8, 250*time.Millisecond)
	k.RunFor(time.Minute)
	if m.Registry().CounterWith("mac.beacons", metrics.L("mac", "rimac")).Value() < 100 {
		t.Fatal("receivers are not beaconing")
	}
}

func TestRIMACBroadcastReachesAwakeNeighbors(t *testing.T) {
	k := sim.New(9)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*RIMAC, 3)
	for i := range macs {
		idx := i
		m.Attach(radio.NodeID(i+1), radio.Position{X: float64(i) * 5}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = NewRIMAC(m, radio.NodeID(i+1), RIMACConfig{BeaconInterval: 200 * time.Millisecond})
		macs[i].Start()
	}
	got := map[int]bool{}
	macs[1].OnReceive(func(radio.NodeID, []byte) { got[1] = true })
	macs[2].OnReceive(func(radio.NodeID, []byte) { got[2] = true })
	ok := false
	k.Schedule(time.Second, func() {
		macs[0].Send(radio.Broadcast, []byte("evt"), func(b bool) { ok = b })
	})
	k.RunFor(5 * time.Second)
	if !ok || !got[1] || !got[2] {
		t.Fatalf("broadcast ok=%v reached=%v", ok, got)
	}
}

func TestRIMACChainForwarding(t *testing.T) {
	const n = 4
	k := sim.New(10)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*RIMAC, n)
	for i := 0; i < n; i++ {
		idx := i
		m.Attach(radio.NodeID(i), radio.Position{X: float64(i) * 18}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = NewRIMAC(m, radio.NodeID(i), RIMACConfig{BeaconInterval: 250 * time.Millisecond})
		macs[i].Start()
	}
	for i := 1; i < n; i++ {
		i := i
		macs[i].OnReceive(func(_ radio.NodeID, p []byte) {
			macs[i].Send(radio.NodeID(i-1), p, nil)
		})
	}
	got := 0
	macs[0].OnReceive(func(radio.NodeID, []byte) { got++ })
	for p := 0; p < 5; p++ {
		p := p
		k.Schedule(time.Duration(p)*5*time.Second, func() {
			macs[n-1].Send(radio.NodeID(n-2), []byte{byte(p)}, nil)
		})
	}
	k.RunFor(60 * time.Second)
	if got < 4 {
		t.Fatalf("delivered %d/5 over the RI-MAC chain", got)
	}
}

func TestRIMACSendAfterStopFails(t *testing.T) {
	_, _, a, _ := riPair(11, 500*time.Millisecond)
	a.Stop()
	called, result := false, true
	a.Send(2, []byte("x"), func(ok bool) { called, result = true, ok })
	if !called || result {
		t.Fatal("send after stop must fail immediately")
	}
}

func TestRIMACName(t *testing.T) {
	_, _, a, _ := riPair(12, 500*time.Millisecond)
	if a.Name() != "rimac" {
		t.Fatalf("Name() = %q", a.Name())
	}
}
