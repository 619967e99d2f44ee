package rpl

import (
	"testing"
	"time"

	"iiotds/internal/sim"
)

func TestTrickleTransmitsOncePerInterval(t *testing.T) {
	k := sim.New(1)
	count := 0
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 3, K: 1}, func() { count++ })
	tr.Start()
	// Intervals: 1,2,4,8,8,8... over 31s that is 1+2+4+8+8+8 = 6 full intervals.
	k.RunUntil(31 * time.Second)
	if count < 5 || count > 7 {
		t.Fatalf("transmissions = %d, want ≈6", count)
	}
	if tr.Interval() != 8*time.Second {
		t.Fatalf("interval = %v, want Imax 8s", tr.Interval())
	}
}

func TestTrickleExponentialBackoffReducesRate(t *testing.T) {
	k := sim.New(2)
	var times []sim.Time
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 5, K: 1}, func() {
		times = append(times, k.Now())
	})
	tr.Start()
	k.RunUntil(2 * time.Minute)
	if len(times) < 3 {
		t.Fatalf("too few transmissions: %d", len(times))
	}
	// Steady-state gaps must be much larger than initial gaps.
	first := times[1] - times[0]
	last := times[len(times)-1] - times[len(times)-2]
	if last <= first {
		t.Fatalf("no backoff: first gap %v, last gap %v", first, last)
	}
}

func TestTrickleSuppression(t *testing.T) {
	k := sim.New(3)
	count := 0
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 2, K: 2}, func() { count++ })
	tr.Start()
	// Simulate hearing 2 consistent messages early in every interval.
	k.Every(200*time.Millisecond, 0, func() { tr.Hear(); tr.Hear() })
	k.RunUntil(time.Minute)
	if count != 0 {
		t.Fatalf("suppression failed: %d transmissions", count)
	}
	if tr.Suppressed == 0 {
		t.Fatal("no suppressions recorded")
	}
}

func TestTrickleResetReturnsToImin(t *testing.T) {
	k := sim.New(4)
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 4, K: 1}, func() {})
	tr.Start()
	k.RunUntil(30 * time.Second) // back off to Imax
	if tr.Interval() <= time.Second {
		t.Fatal("interval did not grow")
	}
	tr.Reset()
	if tr.Interval() != time.Second {
		t.Fatalf("interval after reset = %v, want Imin", tr.Interval())
	}
	if tr.Resets != 1 {
		t.Fatalf("Resets = %d", tr.Resets)
	}
}

func TestTrickleResetAtIminIsNoop(t *testing.T) {
	k := sim.New(5)
	count := 0
	tr := NewTrickle(k, TrickleConfig{Imin: 10 * time.Second, Doublings: 2, K: 1}, func() { count++ })
	tr.Start()
	// Reset storm at Imin must not multiply transmissions.
	k.Every(100*time.Millisecond, 0, func() { tr.Reset() })
	k.RunUntil(30 * time.Second)
	if count > 4 {
		t.Fatalf("reset storm caused %d transmissions in 3 intervals", count)
	}
}

func TestTrickleStop(t *testing.T) {
	k := sim.New(6)
	count := 0
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 2, K: 1}, func() { count++ })
	tr.Start()
	k.RunUntil(3 * time.Second)
	got := count
	tr.Stop()
	k.RunUntil(time.Minute)
	if count != got {
		t.Fatal("trickle fired after Stop")
	}
	tr.Reset() // must not panic or restart
	k.RunUntil(2 * time.Minute)
	if count != got {
		t.Fatal("Reset restarted a stopped trickle")
	}
}

func TestTrickleFiresInSecondHalf(t *testing.T) {
	k := sim.New(7)
	var at sim.Time
	tr := NewTrickle(k, TrickleConfig{Imin: 10 * time.Second, Doublings: 1, K: 1}, func() {
		if at == 0 {
			at = k.Now()
		}
	})
	tr.Start()
	k.RunUntil(10 * time.Second)
	if at < 5*time.Second || at >= 10*time.Second {
		t.Fatalf("first fire at %v, want within [5s,10s)", at)
	}
}

// TestTrickleIntervalAllocFree: a trickle interval — the transmit
// decision, the doubling and the next interval's two timers — allocates
// nothing. Run without -race, whose instrumentation allocates.
func TestTrickleIntervalAllocFree(t *testing.T) {
	k := sim.New(8)
	tr := NewTrickle(k, TrickleConfig{Imin: time.Second, Doublings: 1, K: 1}, func() {})
	tr.Start()
	k.RunUntil(10 * time.Second) // at Imax (2 s), the kernel's event pool warm
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() { k.RunFor(tr.Interval()) }); avg != 0 {
		t.Errorf("a trickle interval allocates %v times, want 0", avg)
	}
	if tr.Sent < runs {
		t.Fatalf("%d transmissions over %d intervals", tr.Sent, runs)
	}
}
