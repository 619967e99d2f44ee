package diag

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestStuckDetector(t *testing.T) {
	d := NewStuckDetector(5, 0.001)
	// Healthy varying signal: never flags.
	for i := 0; i < 20; i++ {
		if d.Observe(20 + float64(i%3)) {
			t.Fatal("varying signal flagged as stuck")
		}
	}
	// Freeze: flags exactly once at the window boundary.
	flags := 0
	for i := 0; i < 10; i++ {
		if d.Observe(21.37) {
			flags++
		}
	}
	if flags != 1 {
		t.Fatalf("flags = %d, want 1", flags)
	}
	// Recovery clears, refreeze reflags.
	d.Observe(25)
	flags = 0
	for i := 0; i < 10; i++ {
		if d.Observe(25) {
			flags++
		}
	}
	if flags != 1 {
		t.Fatalf("reflag count = %d, want 1", flags)
	}
}

func TestRangeDetector(t *testing.T) {
	d := RangeDetector{Min: -40, Max: 85}
	if d.Observe(20) || d.Observe(-40) || d.Observe(85) {
		t.Fatal("in-range flagged")
	}
	if !d.Observe(-41) || !d.Observe(86) || !d.Observe(math.NaN()) {
		t.Fatal("out-of-range not flagged")
	}
}

func TestDriftDetector(t *testing.T) {
	d := NewDriftDetector(2, 5)
	peers := []float64{20, 20.5, 19.5}
	// Healthy.
	for i := 0; i < 20; i++ {
		if d.Observe(20.2, peers) {
			t.Fatal("healthy sensor flagged as drifting")
		}
	}
	// Drift away persistently: flags once after persistence.
	flags := 0
	for i := 0; i < 10; i++ {
		if d.Observe(25, peers) {
			flags++
		}
	}
	if flags != 1 {
		t.Fatalf("flags = %d, want 1", flags)
	}
	// A brief excursion (< persistence) does not flag.
	d2 := NewDriftDetector(2, 5)
	for i := 0; i < 3; i++ {
		if d2.Observe(25, peers) {
			t.Fatal("brief excursion flagged")
		}
	}
	if d2.Observe(20, peers) {
		t.Fatal("recovered sensor flagged")
	}
}

func TestDriftDetectorNoPeers(t *testing.T) {
	d := NewDriftDetector(1, 1)
	if d.Observe(99, nil) {
		t.Fatal("flagged without peers")
	}
}

func TestEngineDetectsSeededFaults(t *testing.T) {
	e := NewEngine(-40, 85)
	rng := rand.New(rand.NewSource(4))
	// Sensors: s0 healthy, s1 stuck, s2 drifting, s3 out-of-range spike.
	base := 20.0
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * time.Minute
		healthy := base + rng.Float64()
		peerVals := []float64{healthy, base + rng.Float64(), base + rng.Float64()}
		e.Observe("s0", at, healthy, peerVals)
		e.Observe("s1", at, 21.00, peerVals) // frozen
		drifting := base + float64(i)*0.05   // slow ramp away
		e.Observe("s2", at, drifting, peerVals)
		v := base + rng.Float64()
		if i == 100 {
			v = 400 // spike
		}
		e.Observe("s3", at, v, peerVals)
	}
	if len(findingsFor(e, "s0")) != 0 {
		t.Fatalf("healthy sensor flagged: %+v", findingsFor(e, "s0"))
	}
	assertHas := func(sensor string, ft FaultType) {
		t.Helper()
		for _, f := range findingsFor(e, sensor) {
			if f.Type == ft {
				return
			}
		}
		t.Fatalf("%s: no %v finding; got %+v", sensor, ft, findingsFor(e, sensor))
	}
	assertHas("s1", FaultStuck)
	assertHas("s2", FaultDrift)
	assertHas("s3", FaultRange)
}

// findingsFor returns e's findings for one sensor.
func findingsFor(e *Engine, sensor string) []Finding {
	var out []Finding
	for _, f := range e.Findings {
		if f.Sensor == sensor {
			out = append(out, f)
		}
	}
	return out
}

func TestFaultTypeString(t *testing.T) {
	for ft, want := range map[FaultType]string{
		FaultStuck: "stuck-at", FaultRange: "out-of-range",
		FaultDrift: "drift",
	} {
		if ft.String() != want {
			t.Errorf("%d = %q", ft, ft.String())
		}
	}
}
