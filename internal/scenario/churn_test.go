package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// churnBench is a four-node medium under an injector with no target
// stack: enough for the engine's schedule, link and partition effects.
type churnBench struct {
	k   *sim.Kernel
	m   *radio.Medium
	inj *fault.Injector
}

func newChurnBench() churnBench {
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	for i := 0; i < 4; i++ {
		m.Attach(radio.NodeID(i), radio.Position{X: float64(i) * 5}, radio.ReceiverFunc(func(radio.Frame) {}))
		m.SetListening(radio.NodeID(i), true)
	}
	return churnBench{k, m, fault.NewInjector(k, m, nil, fault.NewLedger(0))}
}

// churn builds the engine for spec over the bench's four nodes.
func (cb churnBench) churn(seed int64, spec FaultSpec) *Churn {
	return newChurn(cb.inj, cb.k, seed, spec, 4)
}

// churnSchedule runs a churn engine on a fresh bench for run, stops it,
// drains, and returns the applied schedule as "<time> <event> <node>"
// strings, the engine and the medium it drove.
func churnSchedule(seed int64, spec FaultSpec, run time.Duration) ([]string, *Churn, *radio.Medium) {
	cb := newChurnBench()
	churn := cb.churn(seed, spec)
	var events []string
	churn.OnCrash = func(id radio.NodeID) {
		events = append(events, fmt.Sprintf("%v crash %d", cb.k.Now(), id))
	}
	churn.OnRecover = func(id radio.NodeID) {
		events = append(events, fmt.Sprintf("%v recover %d", cb.k.Now(), id))
	}
	churn.Start()
	cb.k.RunUntil(run)
	churn.Stop()
	cb.k.Run() // drain: owed recoveries fire
	return events, churn, cb.m
}

func testChurnSpec() FaultSpec {
	return FaultSpec{
		Churn:  NodeSel{Kind: "list", IDs: []int{1, 2, 3}},
		MeanUp: 20 * time.Second, MinUp: 5 * time.Second,
		MeanDown: 5 * time.Second, MinDown: 2 * time.Second,
	}
}

func TestChurnScheduleDeterministic(t *testing.T) {
	a, _, _ := churnSchedule(7, testChurnSpec(), 5*time.Minute)
	b, _, _ := churnSchedule(7, testChurnSpec(), 5*time.Minute)
	if len(a) == 0 {
		t.Fatal("no churn events generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	c, _, _ := churnSchedule(8, testChurnSpec(), 5*time.Minute)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical %d-event schedules", len(a))
	}
}

func TestChurnStopDrainsToAllUp(t *testing.T) {
	_, churn, m := churnSchedule(3, testChurnSpec(), 5*time.Minute)
	if churn.Crashes() == 0 {
		t.Fatal("no crashes injected")
	}
	// Every crash is paired with a recovery once the drain completes:
	// Stop never strands a node down.
	if churn.Crashes() != churn.Recoveries() {
		t.Fatalf("crashes %d != recoveries %d after drain", churn.Crashes(), churn.Recoveries())
	}
	for _, id := range []radio.NodeID{1, 2, 3} {
		if m.Down(id) {
			t.Fatalf("node %d still down after Stop+drain", id)
		}
	}
}

func TestChurnRespectsFloors(t *testing.T) {
	cb := newChurnBench()
	spec := FaultSpec{
		Churn:  NodeSel{Kind: "list", IDs: []int{1}},
		MeanUp: time.Second, MinUp: 10 * time.Second,
		MeanDown: time.Second, MinDown: 4 * time.Second,
	}
	churn := cb.churn(1, spec)
	var times []time.Duration
	var kinds []string
	churn.OnCrash = func(radio.NodeID) { times = append(times, cb.k.Now()); kinds = append(kinds, "crash") }
	churn.OnRecover = func(radio.NodeID) { times = append(times, cb.k.Now()); kinds = append(kinds, "recover") }
	churn.Start()
	cb.k.RunUntil(3 * time.Minute)
	churn.Stop()
	cb.k.Run()
	if len(times) < 4 {
		t.Fatalf("only %d events in 3 minutes", len(times))
	}
	prev := time.Duration(0)
	for i, at := range times {
		gap := at - prev
		floor := spec.MinUp // gap before a crash is an up period
		if kinds[i] == "recover" {
			floor = spec.MinDown
		}
		if gap < floor {
			t.Fatalf("event %d (%s) after %v, below floor %v", i, kinds[i], gap, floor)
		}
		prev = at
	}
}

func TestChurnLinkFaultsRestoredOnStop(t *testing.T) {
	cb := newChurnBench()
	churn := cb.churn(5, FaultSpec{
		FlapLink: [2]int{0, 1}, FlapEvery: 3 * time.Second, FlapPRR: 0.1,
		GELink: [2]int{2, 3}, GEPGoodBad: 0.5, GEPBadGood: 0.2, GEBadPRR: 0.2,
		GEStep: time.Second,
	})
	churn.Start()
	sawFlap, sawBurst := false, false
	cb.k.Every(500*time.Millisecond, 0, func() {
		if cb.m.PRR(0, 1) == 0.1 {
			sawFlap = true
		}
		if cb.m.PRR(2, 3) == 0.2 {
			sawBurst = true
		}
	})
	cb.k.RunUntil(2 * time.Minute)
	churn.Stop()
	if !sawFlap {
		t.Error("flap link never degraded")
	}
	if !sawBurst {
		t.Error("Gilbert–Elliott link never entered the bad state")
	}
	if got := cb.m.PRR(0, 1); got != 1 {
		t.Errorf("flap link PRR after Stop = %v, want override removed", got)
	}
	if got := cb.m.PRR(2, 3); got != 1 {
		t.Errorf("GE link PRR after Stop = %v, want override removed", got)
	}
}

func TestChurnPartitionStorm(t *testing.T) {
	cb := newChurnBench()
	churn := cb.churn(9, FaultSpec{
		Part:      NodeSel{Kind: "list", IDs: []int{2, 3}},
		PartEvery: 10 * time.Second, PartHold: 5 * time.Second,
	})
	churn.Start()
	sawPartition := false
	cb.k.Every(time.Second, 0, func() {
		if cb.inj.Partitioned() {
			sawPartition = true
		}
	})
	cb.k.RunUntil(2 * time.Minute)
	churn.Stop()
	if !sawPartition {
		t.Fatal("no partition storm in 2 minutes")
	}
	if cb.inj.Partitioned() {
		t.Fatal("partition still installed after Stop")
	}
}

// TestChurnSeedSensitivity drives a converged deployment with two churn
// engines that differ only in seed and compares the crash timelines read
// back from the fault-layer trace events: same infrastructure, different
// draws, different schedule — and the same seed replays its schedule.
func TestChurnSeedSensitivity(t *testing.T) {
	schedule := func(seed int64) []string {
		b := Build(Spec{
			Seed:          42,
			Topo:          TopoSpec{Kind: TopoGrid, N: 9},
			TraceCapacity: 1 << 14,
		})
		d := b.D
		d.RunUntilConverged(3 * time.Minute)
		inj := fault.NewInjector(d.K, d.M, d, nil)
		inj.SetRecorder(d.Trace)
		churn := newChurn(inj, d.K, seed, FaultSpec{
			Churn:  NodeSel{Kind: "odd"},
			MeanUp: 20 * time.Second, MinUp: 10 * time.Second,
			MeanDown: 5 * time.Second, MinDown: 2 * time.Second,
		}, 9)
		churn.Start()
		d.K.RunFor(4 * time.Minute)
		churn.Stop()
		var events []string
		for _, ev := range d.Trace.Events() {
			if ev.Type == trace.FaultCrash || ev.Type == trace.FaultRecover {
				events = append(events, fmt.Sprintf("%d %s %d", ev.At, ev.Type, ev.Node))
			}
		}
		return events
	}
	a, b := schedule(1), schedule(2)
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("no churn events recorded: %d vs %d", len(a), len(b))
	}
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 produced identical %d-event schedules", len(a))
	}
	if again := schedule(1); !reflect.DeepEqual(a, again) {
		t.Fatalf("seed 1 replay produced a different schedule")
	}
}
