package fault

import (
	"fmt"
	"math"
	"testing"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

type fakeTarget struct {
	crashed   map[radio.NodeID]bool
	recovered map[radio.NodeID]bool
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{crashed: map[radio.NodeID]bool{}, recovered: map[radio.NodeID]bool{}}
}

func (f *fakeTarget) Crash(id radio.NodeID)   { f.crashed[id] = true }
func (f *fakeTarget) Recover(id radio.NodeID) { f.recovered[id] = true }

func setup(t *testing.T) (*sim.Kernel, *radio.Medium, *fakeTarget, *Ledger, *Injector, []*int) {
	t.Helper()
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	rx := make([]*int, 4)
	for i := 0; i < 4; i++ {
		n := new(int)
		rx[i] = n
		m.Attach(radio.NodeID(i), radio.Position{X: float64(i) * 5}, radio.ReceiverFunc(func(radio.Frame) { *n++ }))
		m.SetListening(radio.NodeID(i), true)
	}
	tgt := newFakeTarget()
	ledger := NewLedger(0)
	return k, m, tgt, ledger, NewInjector(k, m, tgt, ledger), rx
}

func TestCrashAndRecover(t *testing.T) {
	k, m, tgt, ledger, inj, _ := setup(t)
	k.At(10*time.Second, func() { inj.Crash(2) })
	k.At(30*time.Second, func() { inj.Recover(2) })
	k.RunUntil(20 * time.Second)
	if !tgt.crashed[2] || !m.Down(2) {
		t.Fatal("crash not applied")
	}
	k.RunUntil(40 * time.Second)
	if !tgt.recovered[2] || m.Down(2) {
		t.Fatal("recovery not applied")
	}
	s := ledger.StatsOf("node-2", 40*time.Second)
	if s.Failures != 1 || s.Repairs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Up 0-10s and 30-40s over one failure: MTTF = 20s of accumulated
	// up time per failure; down 10-30s over one repair: MTTR = 20s.
	if s.MTTF != 20*time.Second || s.MTTR != 20*time.Second {
		t.Fatalf("MTTF=%v MTTR=%v", s.MTTF, s.MTTR)
	}
	// Availability: up 10s + 10s of 40s = 0.5.
	if s.Availability != 0.5 {
		t.Fatalf("availability = %v", s.Availability)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	k, m, _, _, inj, rx := setup(t)
	k.At(time.Second, func() { inj.Partition([]radio.NodeID{0, 1}, []radio.NodeID{2, 3}) })
	k.At(time.Minute, inj.Heal)
	k.RunUntil(2 * time.Second)
	if !inj.Partitioned() {
		t.Fatal("partition not installed")
	}
	// Under the partition node 1 (same group) hears node 0, node 2
	// (other group) does not. Frames are spaced so node 0's single
	// radio does not collide with itself.
	m.Send(radio.Frame{From: 0, To: 1, Size: 10})
	k.At(2500*time.Millisecond, func() { m.Send(radio.Frame{From: 0, To: 2, Size: 10}) })
	k.RunUntil(3 * time.Second)
	if *rx[1] != 2 { // promiscuous: hears both transmissions
		t.Fatalf("node 1 heard %d frames under partition, want 2", *rx[1])
	}
	if *rx[2] != 0 {
		t.Fatalf("node 2 heard %d frames across partition, want 0", *rx[2])
	}
	k.RunUntil(2 * time.Minute)
	if inj.Partitioned() {
		t.Fatal("heal not applied")
	}
	m.Send(radio.Frame{From: 0, To: 2, Size: 10})
	k.Run()
	if *rx[2] != 1 {
		t.Fatalf("node 2 heard %d frames after heal, want 1", *rx[2])
	}
}

func TestDegradeAndRestoreLink(t *testing.T) {
	k, m, _, _, inj, _ := setup(t)
	k.At(time.Second, func() { inj.DegradeLink(0, 1, 0) })
	k.At(time.Minute, func() { inj.RestoreLink(0, 1) })
	k.RunUntil(2 * time.Second)
	if m.PRR(0, 1) != 0 || m.PRR(1, 0) != 0 {
		t.Fatal("degradation not applied")
	}
	k.RunUntil(2 * time.Minute)
	if m.PRR(0, 1) != 1 {
		t.Fatalf("PRR after restore = %v", m.PRR(0, 1))
	}
}

func TestLedgerDoubleEventsIgnored(t *testing.T) {
	l := NewLedger(0)
	l.RecordFailure("x", 10*time.Second)
	l.RecordFailure("x", 12*time.Second) // already down
	l.RecordRepair("x", 20*time.Second)
	l.RecordRepair("x", 22*time.Second) // already up
	s := l.StatsOf("x", 30*time.Second)
	if s.Failures != 1 || s.Repairs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MTTF != 20*time.Second { // up 0-10 and 20-30
		t.Fatalf("MTTF = %v", s.MTTF)
	}
}

func TestLedgerNeverFailedComponent(t *testing.T) {
	l := NewLedger(0)
	s := l.StatsOf("ghost", time.Hour)
	if s.Availability != 1 || s.Failures != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLedgerStillDownComponent(t *testing.T) {
	l := NewLedger(0)
	l.RecordFailure("x", 10*time.Second)
	s := l.StatsOf("x", 40*time.Second)
	if s.Availability != 0.25 {
		t.Fatalf("availability = %v, want 0.25", s.Availability)
	}
	if s.MTTR != 30*time.Second {
		t.Fatalf("MTTR = %v", s.MTTR)
	}
}

func TestSystemAvailability(t *testing.T) {
	l := NewLedger(0)
	l.RecordFailure("a", 0)
	l.RecordRepair("a", 50*time.Second) // a: 50% over 100s
	l.RecordFailure("b", 75*time.Second)
	l.RecordRepair("b", 100*time.Second) // b: 75%
	got := l.SystemAvailability(100 * time.Second)
	if got < 0.624 || got > 0.626 {
		t.Fatalf("system availability = %v, want 0.625", got)
	}
	if names := l.Components(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("Components = %v", names)
	}
}

// TestSystemAvailabilityBitStable: a float sum depends on its order, so
// the average must come out bit-identical on every call on one ledger.
func TestSystemAvailabilityBitStable(t *testing.T) {
	l := NewLedger(0)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("n%02d", i)
		l.RecordFailure(name, time.Duration(i+1)*time.Second)
		l.RecordRepair(name, time.Duration(3*i+7)*time.Second)
	}
	now := 1000 * time.Second
	want := math.Float64bits(l.SystemAvailability(now))
	for call := 0; call < 200; call++ {
		if got := math.Float64bits(l.SystemAvailability(now)); got != want {
			t.Fatalf("call %d: SystemAvailability bits %#x, first call %#x", call, got, want)
		}
	}
}

// TestLedgerStatsEdgeSemantics pins the censored-observation semantics
// documented on StatsOf.
func TestLedgerStatsEdgeSemantics(t *testing.T) {
	l := NewLedger(0)

	// Unknown component: perfectly available, zero MTTF/MTTR.
	if s := l.StatsOf("unknown", time.Hour); s.Availability != 1 || s.MTTF != 0 || s.MTTR != 0 {
		t.Fatalf("unknown component stats = %+v", s)
	}

	// Known but never failed (a spurious repair creates it up): MTTF is
	// the censored total uptime, MTTR stays 0.
	l.RecordRepair("steady", 10*time.Second)
	s := l.StatsOf("steady", 100*time.Second)
	if s.Failures != 0 || s.MTTF != 100*time.Second || s.MTTR != 0 || s.Availability != 1 {
		t.Fatalf("never-failed stats = %+v", s)
	}

	// Failed, never repaired: MTTR is the censored downtime so far.
	l.RecordFailure("stuck", 40*time.Second)
	s = l.StatsOf("stuck", 100*time.Second)
	if s.Failures != 1 || s.Repairs != 0 {
		t.Fatalf("still-down stats = %+v", s)
	}
	if s.MTTF != 40*time.Second || s.MTTR != 60*time.Second {
		t.Fatalf("still-down MTTF=%v MTTR=%v, want 40s/60s", s.MTTF, s.MTTR)
	}
	if s.Availability != 0.4 {
		t.Fatalf("still-down availability = %v", s.Availability)
	}
}

// TestInjectorPartitionedCrossGoroutine exercises the documented thread
// contract: Partitioned may be polled from another goroutine while the
// kernel mutates partition state (the race detector is the assertion).
func TestInjectorPartitionedCrossGoroutine(t *testing.T) {
	k, _, _, _, inj, _ := setup(t)
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		if i%2 == 0 {
			k.At(at, func() { inj.Partition([]radio.NodeID{0, 1}, []radio.NodeID{2, 3}) })
		} else {
			k.At(at, inj.Heal)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			_ = inj.Partitioned()
		}
	}()
	k.Run()
	<-done
}
