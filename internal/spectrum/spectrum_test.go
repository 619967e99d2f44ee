package spectrum

import (
	"testing"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/sim"
)

func TestCoordinatedPlanDistinctChannels(t *testing.T) {
	tenants := []string{"acme", "globex", "initech"}
	p := CoordinatedPlan(tenants)
	seen := map[uint8]bool{}
	for _, tn := range tenants {
		ch := p.ChannelOf(tn)
		if seen[ch] {
			t.Fatalf("channel %d assigned twice", ch)
		}
		seen[ch] = true
	}
	// Deterministic regardless of input order.
	p2 := CoordinatedPlan([]string{"initech", "acme", "globex"})
	for _, tn := range tenants {
		if p.ChannelOf(tn) != p2.ChannelOf(tn) {
			t.Fatal("plan depends on input order")
		}
	}
}

func TestCoordinatedPlanWrapsAroundBand(t *testing.T) {
	var tenants []string
	for i := 0; i < 20; i++ { // more tenants than channels
		tenants = append(tenants, string(rune('a'+i)))
	}
	p := CoordinatedPlan(tenants)
	for _, tn := range tenants {
		ch := p.ChannelOf(tn)
		if ch < 11 || ch > 26 {
			t.Fatalf("channel %d outside band", ch)
		}
	}
}

func TestUncoordinatedPlanCollapsesToDefault(t *testing.T) {
	p := UncoordinatedPlan([]string{"a", "b"})
	if p.ChannelOf("a") != DefaultChannel || p.ChannelOf("b") != DefaultChannel {
		t.Fatal("uncoordinated tenants not on default channel")
	}
	if p.ChannelOf("unknown") != DefaultChannel {
		t.Fatal("unknown tenant not defaulted")
	}
}

func TestHopperHopsOnCollisions(t *testing.T) {
	k := sim.New(9)
	var counter metrics.Counter
	retunes := map[string]uint8{}
	h := NewHopper(k, "acme", DefaultChannel, &counter,
		RetunerFunc(func(tn string, ch uint8) { retunes[tn] = ch }),
		HopperConfig{Interval: 10 * time.Second, CollisionThreshold: 5})
	h.Start()
	// Sustained collisions: the counter grows fast.
	k.Every(time.Second, 0, func() { counter.Add(3) })
	k.RunUntil(time.Minute)
	if h.Hops == 0 {
		t.Fatal("hopper never hopped despite collisions")
	}
	if retunes["acme"] != h.Current() {
		t.Fatalf("retuner saw %d, hopper at %d", retunes["acme"], h.Current())
	}
	if h.Current() == DefaultChannel && h.Hops == 1 {
		t.Fatal("hop landed on the same channel")
	}
}

func TestHopperStaysOnQuietChannel(t *testing.T) {
	k := sim.New(10)
	var counter metrics.Counter
	h := NewHopper(k, "acme", 15, &counter,
		RetunerFunc(func(string, uint8) {}),
		HopperConfig{Interval: 10 * time.Second, CollisionThreshold: 5})
	h.Start()
	k.RunUntil(5 * time.Minute)
	if h.Hops != 0 || h.Current() != 15 {
		t.Fatalf("hopper moved without collisions: hops=%d ch=%d", h.Hops, h.Current())
	}
}
