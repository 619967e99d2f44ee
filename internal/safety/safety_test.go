package safety

import (
	"testing"
	"time"
)

func band() Band { return ComfortBand(22, 1, 4) } // soft 21..23, hard 18..26

func TestBandConstruction(t *testing.T) {
	b := band()
	if b.SoftLow != 21 || b.SoftHigh != 23 || b.HardLow != 18 || b.HardHigh != 26 {
		t.Fatalf("band = %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Band{HardLow: 10, SoftLow: 5, SoftHigh: 20, HardHigh: 30}
	if bad.Validate() == nil {
		t.Fatal("inconsistent band accepted")
	}
	if err := (HardOnlyBand(10, 35)).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSoftViolationEpisodeAndSeverity(t *testing.T) {
	m := NewMonitor()
	if err := m.SetBand("zone1/temp", band()); err != nil {
		t.Fatal(err)
	}
	var events []Violation
	m.OnViolation = func(v Violation) { events = append(events, v) }
	// In band, then 2 degrees below soft for 60 s, then back.
	m.Observe("zone1/temp", 0, 22)
	m.Observe("zone1/temp", 60*time.Second, 19) // soft violation starts
	m.Observe("zone1/temp", 120*time.Second, 19)
	m.Observe("zone1/temp", 180*time.Second, 22)
	rep := m.ReportOf("zone1/temp")
	if rep.SoftViolations != 1 || rep.HardViolations != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Outside soft band from t=60 to t=180 → 120 s of soft time.
	if rep.SoftTime != 120*time.Second {
		t.Fatalf("SoftTime = %v", rep.SoftTime)
	}
	// Severity: 2 degrees × 120 s = 240 unit·s.
	if rep.SoftSeverity != 240 {
		t.Fatalf("SoftSeverity = %v", rep.SoftSeverity)
	}
	if len(events) != 1 || events[0].Hard || events[0].Rule != "zone1/temp" {
		t.Fatalf("events = %+v", events)
	}
}

func TestHardViolation(t *testing.T) {
	m := NewMonitor()
	_ = m.SetBand("t", band())
	var events []Violation
	m.OnViolation = func(v Violation) { events = append(events, v) }
	m.Observe("t", 0, 22)
	m.Observe("t", time.Minute, 17) // below hard low: both episodes fire
	rep := m.ReportOf("t")
	if rep.HardViolations != 1 || rep.SoftViolations != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestEpisodeCountingNotPerSample(t *testing.T) {
	m := NewMonitor()
	_ = m.SetBand("t", band())
	m.Observe("t", 0, 19)
	for i := 1; i <= 10; i++ {
		m.Observe("t", time.Duration(i)*time.Second, 19)
	}
	if rep := m.ReportOf("t"); rep.SoftViolations != 1 {
		t.Fatalf("episodes = %d, want 1", rep.SoftViolations)
	}
	// Recover then violate again: second episode.
	m.Observe("t", 20*time.Second, 22)
	m.Observe("t", 21*time.Second, 19)
	if rep := m.ReportOf("t"); rep.SoftViolations != 2 {
		t.Fatalf("episodes = %d, want 2", rep.SoftViolations)
	}
}

func TestBandChangeAtRuntime(t *testing.T) {
	m := NewMonitor()
	_ = m.SetBand("t", ComfortBand(22, 1, 4))
	m.Observe("t", 0, 19.5) // violates soft 21..23
	if m.ReportOf("t").SoftViolations != 1 {
		t.Fatal("tight band violation missed")
	}
	// Space becomes unoccupied: widen the band; same value is now fine.
	_ = m.SetBand("t", HardOnlyBand(12, 32))
	m.Observe("t", time.Minute, 19.5)
	rep := m.ReportOf("t")
	if rep.SoftViolations != 1 {
		t.Fatalf("widened band still violating: %+v", rep)
	}
}

func TestUnknownRuleIgnored(t *testing.T) {
	m := NewMonitor()
	m.Observe("ghost", 0, 1) // must not panic
	if rep := m.ReportOf("ghost"); rep.SoftViolations != 0 {
		t.Fatal("phantom violations")
	}
}

func TestRulesSorted(t *testing.T) {
	m := NewMonitor()
	_ = m.SetBand("b", band())
	_ = m.SetBand("a", band())
	rules := m.Rules()
	if len(rules) != 2 || rules[0] != "a" {
		t.Fatalf("Rules = %v", rules)
	}
}
