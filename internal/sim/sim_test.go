package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.Schedule(3*time.Second, func() { got = append(got, 3) })
	k.Schedule(1*time.Second, func() { got = append(got, 1) })
	k.Schedule(2*time.Second, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.Schedule(time.Second, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending before run")
	}
	if !e.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := New(1)
	e := k.Schedule(time.Second, func() {})
	k.Run()
	if e.Cancel() {
		t.Fatal("Cancel after firing should report false")
	}
	if e.Pending() {
		t.Fatal("fired event reports pending")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New(1)
	fired := 0
	k.Schedule(time.Second, func() { fired++ })
	k.Schedule(10*time.Second, func() { fired++ })
	k.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
	k.RunUntil(20 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if k.Now() != 20*time.Second {
		t.Fatalf("Now() = %v, want 20s", k.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	k := New(1)
	k.RunFor(3 * time.Second)
	k.RunFor(4 * time.Second)
	if k.Now() != 7*time.Second {
		t.Fatalf("Now() = %v, want 7s", k.Now())
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	k := New(1)
	var times []Time
	k.Schedule(time.Second, func() {
		times = append(times, k.Now())
		k.Schedule(time.Second, func() {
			times = append(times, k.Now())
		})
	})
	k.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestPastEventClampedToNow(t *testing.T) {
	k := New(1)
	k.RunUntil(10 * time.Second)
	var at Time
	k.At(time.Second, func() { at = k.Now() })
	k.Run()
	if at != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamp to 10s", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New(1)
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	k.Run()
	if !fired || k.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
}

func TestEveryRepeatsAndStops(t *testing.T) {
	k := New(1)
	count := 0
	r := k.Every(time.Second, 0, func() { count++ })
	k.RunUntil(5500 * time.Millisecond)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	r.Stop()
	r.Stop() // idempotent
	k.RunUntil(time.Minute)
	if count != 5 {
		t.Fatalf("count after stop = %d, want 5", count)
	}
}

func TestEveryJitterBounded(t *testing.T) {
	k := New(42)
	var gaps []Time
	last := Time(0)
	k.Every(time.Second, 500*time.Millisecond, func() {
		gaps = append(gaps, k.Now()-last)
		last = k.Now()
	})
	k.RunUntil(time.Minute)
	if len(gaps) == 0 {
		t.Fatal("no firings")
	}
	for _, g := range gaps {
		if g < time.Second || g >= 1500*time.Millisecond {
			t.Fatalf("gap %v outside [1s, 1.5s)", g)
		}
	}
}

func TestStopRepeaterFromOwnCallback(t *testing.T) {
	k := New(1)
	count := 0
	var r *Repeater
	r = k.Every(time.Second, 0, func() {
		count++
		if count == 2 {
			r.Stop()
		}
	})
	k.RunUntil(time.Minute)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		k := New(seed)
		var trace []int64
		k.Every(time.Second, 700*time.Millisecond, func() {
			trace = append(trace, int64(k.Now()), k.Rand().Int63n(1000))
		})
		k.RunUntil(30 * time.Second)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPropertyEventsFireInTimestampOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New(3)
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d)*time.Millisecond, func() {
				fired = append(fired, k.Now())
			})
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAtNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	New(1).At(0, nil)
}

func TestStatsCounters(t *testing.T) {
	k := New(1)
	a := k.Schedule(time.Second, func() {})
	k.Schedule(2*time.Second, func() {})
	k.Schedule(3*time.Second, func() {})
	a.Cancel()
	k.Run()
	st := k.Stats()
	if st.Scheduled != 3 || st.Fired != 2 || st.Canceled != 1 {
		t.Fatalf("stats = %+v, want scheduled=3 fired=2 canceled=1", st)
	}
	if st.MaxHeapDepth != 3 {
		t.Fatalf("MaxHeapDepth = %d, want 3", st.MaxHeapDepth)
	}
	if k.Fired() != st.Fired {
		t.Fatalf("Fired() = %d, Stats().Fired = %d", k.Fired(), st.Fired)
	}
}

func TestEventPoolReuse(t *testing.T) {
	k := New(1)
	for i := 0; i < 100; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {})
		k.Run()
	}
	st := k.Stats()
	if st.Reused < 90 {
		t.Fatalf("Reused = %d, want most of the %d schedules served from the pool", st.Reused, st.Scheduled)
	}
}

// TestStaleHandleIsInert pins the safety contract that makes pooling
// sound: a handle whose event already fired must not affect the event
// that later reuses its slot.
func TestStaleHandleIsInert(t *testing.T) {
	k := New(1)
	a := k.Schedule(time.Second, func() {})
	k.Run()
	fired := false
	b := k.Schedule(time.Second, func() { fired = true })
	if a.Cancel() {
		t.Fatal("stale Cancel reported true")
	}
	if a.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !b.Pending() {
		t.Fatal("live event lost by stale Cancel")
	}
	k.Run()
	if !fired {
		t.Fatal("reused-slot event did not fire")
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	k := New(1)
	e := k.Schedule(time.Second, func() {})
	k.Schedule(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	e.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (eager removal)", k.Pending())
	}
}

// TestHeapFiresInKeyOrder runs drawn programs — schedules with many
// equal timestamps, cancels of the root, of the last slot, of an only
// element and of anything pending, and callbacks that schedule and
// cancel in their turn — and requires the events that survive to fire in
// exactly the order a sort by (at, seq) puts them in: the order is the
// key's, whatever shape the heap is in.
func TestHeapFiresInKeyOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(1)
		type planned struct {
			at       Time
			canceled bool
		}
		var plan []planned // index = scheduling order = seq
		var handles []Event
		var fired []int
		cancel := func(id int) {
			if handles[id].Cancel() {
				plan[id].canceled = true
			}
		}
		// idAt names the event in heap slot i.
		idAt := func(i int) int {
			for id, h := range handles {
				if h.e == k.queue[i].e && h.live() {
					return id
				}
			}
			t.Fatalf("seed %d: slot %d holds no live event", seed, i)
			return -1
		}
		var schedule func(at Time)
		schedule = func(at Time) {
			id := len(plan)
			plan = append(plan, planned{at: at})
			handles = append(handles, k.At(at, func() {
				fired = append(fired, id)
				if len(plan) < 400 && rng.Intn(3) == 0 {
					schedule(k.Now() + Time(rng.Intn(20)))
				}
				if k.Pending() > 0 && rng.Intn(4) == 0 {
					cancel(idAt(rng.Intn(k.Pending())))
				}
			}))
		}

		schedule(5)
		cancel(0) // an only element
		if k.Pending() != 0 {
			t.Fatalf("seed %d: canceling the only event left %d pending", seed, k.Pending())
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 7 || k.Pending() == 0:
				schedule(Time(rng.Intn(30)))
			case op == 7:
				cancel(idAt(0)) // the root
			case op == 8:
				cancel(idAt(k.Pending() - 1)) // the last slot
			default:
				cancel(idAt(rng.Intn(k.Pending())))
			}
		}
		k.Run()

		var want []int
		for id, p := range plan {
			if !p.canceled {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return plan[want[i]].at < plan[want[j]].at })
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: fired %v, want %v", seed, fired, want)
		}
		if st := k.Stats(); int(st.Fired) != len(want) || int(st.Fired+st.Canceled) != len(plan) {
			t.Fatalf("seed %d: stats %+v for %d planned, %d surviving", seed, st, len(plan), len(want))
		}
	}
}

func TestAtReturnsFireTime(t *testing.T) {
	k := New(1)
	k.RunUntil(4 * time.Second)
	e := k.Schedule(2*time.Second, func() {})
	if e.At() != 6*time.Second {
		t.Fatalf("At() = %v, want 6s", e.At())
	}
	k.Run()
	if e.At() != 6*time.Second {
		t.Fatalf("At() after fire = %v, want 6s", e.At())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
	}
	k.Run()
}

// TestRepeaterTickAllocFree: a repeater's tick — the callback, the
// jitter draw and the next schedule — allocates nothing. Run without
// -race, whose instrumentation allocates.
func TestRepeaterTickAllocFree(t *testing.T) {
	k := New(1)
	ticks := 0
	r := k.Every(time.Second, 100*time.Millisecond, func() { ticks++ })
	k.RunFor(3 * time.Second) // warm the event pool
	// Ten seconds a run: at least nine ticks in each, so one allocation
	// per tick cannot vanish in AllocsPerRun's integer average.
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() { k.RunFor(10 * time.Second) }); avg != 0 {
		t.Errorf("ten seconds of repeater ticks allocate %v times, want 0", avg)
	}
	r.Stop()
	if ticks < runs*9 {
		t.Fatalf("%d ticks over %d s", ticks, runs*10)
	}
}
