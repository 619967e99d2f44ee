package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunBeforeStrictBound pins the windowed-execution primitive: events
// strictly before the bound run, events at the bound stay queued, and
// the clock lands exactly on the bound either way.
func TestRunBeforeStrictBound(t *testing.T) {
	k := New(1)
	var fired []string
	k.At(10*time.Millisecond, func() { fired = append(fired, "early") })
	k.At(20*time.Millisecond, func() { fired = append(fired, "at-bound") })
	k.RunBefore(20 * time.Millisecond)
	if got, want := fmt.Sprint(fired), "[early]"; got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("event at the bound should remain queued, pending=%d", k.Pending())
	}
	k.RunBefore(20*time.Millisecond + 1)
	if got, want := fmt.Sprint(fired), "[early at-bound]"; got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestNextEventAt pins the peek primitive.
func TestNextEventAt(t *testing.T) {
	k := New(1)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty kernel reported a next event")
	}
	k.At(30*time.Millisecond, func() {})
	k.At(10*time.Millisecond, func() {})
	at, ok := k.NextEventAt()
	if !ok || at != 10*time.Millisecond {
		t.Fatalf("NextEventAt = %v,%v, want 10ms,true", at, ok)
	}
}

// shardScript drives a group through every kind of window the scheduler
// tells apart. Each stripe keeps its own transcript (stripes share
// nothing during a window, including a log):
//
//	[0, 20ms)   every stripe ticks, each tick a burst of RNG draws dense
//	            enough that the windows are shared with the workers, and
//	            now and then a handoff to the next stripe — whose apply
//	            posts an echo back, which must land one barrier later;
//	[20, 30ms)  nothing but two control callbacks: empty windows;
//	[30, 40ms)  stripe 0 alone: single-stripe windows;
//	[40, 60ms)  every stripe again.
//
// It returns the transcripts and the group, for its execution counters.
func shardScript(stripes, workers int) ([][]string, *ShardGroup) {
	kernels := make([]*Kernel, stripes)
	for i := range kernels {
		kernels[i] = New(int64(100 * (i + 1)))
	}
	g := NewShardGroup(time.Millisecond, kernels...)
	g.SetWorkers(workers)

	logs := make([][]string, stripes)
	const period = 700 * time.Microsecond
	for i, k := range kernels {
		var until Time
		var tick func()
		tick = func() {
			v := k.Rand().Intn(1000)
			logs[i] = append(logs[i], fmt.Sprintf("t=%v draw=%d", k.Now(), v))
			for j := 1; j <= 8; j++ {
				k.Schedule(Time(j)*50*time.Microsecond, func() {
					logs[i] = append(logs[i], fmt.Sprintf("t=%v burst=%d", k.Now(), k.Rand().Intn(1000)))
				})
			}
			if v%3 == 0 {
				dst := (i + 1) % stripes
				at := k.Now()
				g.PostBatch(i, dst, func() int {
					applied := g.Windows()
					kernels[dst].At(at+g.Lookahead(), func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("t=%v recv-from-s%d", kernels[dst].Now(), i))
					})
					g.PostBatch(dst, i, func() int {
						logs[i] = append(logs[i], fmt.Sprintf("echo at barrier %v, %d after the handoff's", g.Now(), g.Windows()-applied))
						return 1
					})
					return 1
				})
			}
			if k.Now()+period < until {
				k.Schedule(period, tick)
			}
		}
		start := func(from, to Time) {
			k.At(from+Time(i+1)*100*time.Microsecond, func() { until = to; tick() })
		}
		start(0, 20*time.Millisecond)
		if i == 0 {
			start(30*time.Millisecond, 40*time.Millisecond)
		}
		start(40*time.Millisecond, 60*time.Millisecond)
	}
	for _, at := range []Time{22 * time.Millisecond, 25 * time.Millisecond} {
		g.Control().At(at, func() { logs[0] = append(logs[0], fmt.Sprintf("ctl t=%v", g.Now())) })
	}
	g.RunUntil(61 * time.Millisecond)
	return logs, g
}

// wideOpen lifts GOMAXPROCS for the test, so that a crew as large as
// the stripe count is exercised on a host with fewer processors.
func wideOpen(t *testing.T) {
	prev := runtime.GOMAXPROCS(16)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestShardGroupWorkerInvariance is the core determinism property: each
// stripe's full transcript (RNG draws, handoff arrival times, control
// callbacks) is identical whether stripes run on one worker or many —
// and on many they really are shared, or the comparison says nothing.
func TestShardGroupWorkerInvariance(t *testing.T) {
	wideOpen(t)
	for _, stripes := range []int{2, 4, 8} {
		seq, g1 := shardScript(stripes, 1)
		echoes := 0
		for i, log := range seq {
			if len(log) == 0 {
				t.Fatalf("stripes=%d: stripe %d produced no events", stripes, i)
			}
			for _, line := range log {
				if strings.HasPrefix(line, "echo") {
					echoes++
					if !strings.HasSuffix(line, ", 1 after the handoff's") {
						t.Fatalf("stripes=%d: a Post from a handoff must drain at the next barrier: %q", stripes, line)
					}
				}
			}
		}
		if echoes == 0 {
			t.Fatalf("stripes=%d: no handoff posted an echo", stripes)
		}
		if g1.SharedWindows() != 0 {
			t.Fatalf("stripes=%d: one worker shared %d windows", stripes, g1.SharedWindows())
		}
		for _, w := range []int{2, stripes, stripes + 3} {
			par, g := shardScript(stripes, w)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("stripes=%d workers=%d transcripts differ from workers=1:\nseq: %v\npar: %v", stripes, w, seq, par)
			}
			if g.Windows() != g1.Windows() || g.Handoffs() != g1.Handoffs() {
				t.Fatalf("stripes=%d workers=%d: %d windows, %d handoffs; one worker had %d, %d",
					stripes, w, g.Windows(), g.Handoffs(), g1.Windows(), g1.Handoffs())
			}
			if g.SharedWindows() == 0 || g.SharedWindows() >= g.Windows() {
				t.Fatalf("stripes=%d workers=%d: %d of %d windows shared; the script has dense, empty and single-stripe ones",
					stripes, w, g.SharedWindows(), g.Windows())
			}
		}
	}
}

// TestShardGroupWorkersDoNotOutliveRun: stripe workers belong to one
// RunUntil call. The goroutine count is back at its baseline when the
// call has returned, also when the worker count changed between calls.
func TestShardGroupWorkersDoNotOutliveRun(t *testing.T) {
	wideOpen(t)
	kernels := []*Kernel{New(1), New(2), New(3), New(4)}
	g := NewShardGroup(time.Millisecond, kernels...)
	peak := 0
	for _, k := range kernels {
		k.Every(50*time.Microsecond, 0, func() {})
	}
	kernels[0].Every(time.Millisecond, 0, func() { peak = max(peak, runtime.NumGoroutine()) })

	base := runtime.NumGoroutine()
	settled := func() int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond) // a dismissed worker is on its way out, not gone
		}
		return n
	}
	for _, w := range []int{4, 2, 3} {
		g.SetWorkers(w)
		peak = 0
		g.RunFor(20 * time.Millisecond)
		if n := settled(); n != base {
			t.Fatalf("workers=%d: %d goroutines after RunFor returned, %d before it", w, n, base)
		}
		if peak != base+w-1 {
			t.Fatalf("workers=%d: %d goroutines inside the run, want the driver's %d and %d workers", w, peak, base, w-1)
		}
	}
}

// TestWindowAllocFree: a steady-state window with no handoff allocates
// nothing, whether the driver runs it alone or shares it with workers
// that are already up.
func TestWindowAllocFree(t *testing.T) {
	wideOpen(t)
	for _, workers := range []int{1, 3} {
		kernels := []*Kernel{New(1), New(2), New(3)}
		g := NewShardGroup(time.Millisecond, kernels...)
		for _, k := range kernels {
			var tick func()
			tick = func() { k.Schedule(100*time.Microsecond, tick) }
			k.Schedule(0, tick)
		}
		g.RunFor(50 * time.Millisecond) // warm: event pools, the busy list, the load average
		window := func() {
			next, _ := g.nextEvent()
			g.runWindow(next+g.lookahead, workers)
		}
		window() // musters the crew the measured windows share
		shared := g.shared
		if avg := testing.AllocsPerRun(200, window); avg != 0 {
			t.Errorf("workers=%d: %.2f allocs per window, want 0", workers, avg)
		}
		if got := g.shared - shared; (got != 0) != (workers > 1) {
			t.Errorf("workers=%d: %d of the measured windows were shared", workers, got)
		}
		if g.crew != nil {
			g.crew.dismiss()
		}
	}
}

// TestShardGroupControlExactness checks that control callbacks run at
// their exact requested instant (a barrier is forced there) and before
// stripe events at the same instant.
func TestShardGroupControlExactness(t *testing.T) {
	k0, k1 := New(1), New(2)
	g := NewShardGroup(500*time.Microsecond, k0, k1)
	var order []string
	k0.At(10*time.Millisecond, func() { order = append(order, "stripe-event") })
	g.Control().At(10*time.Millisecond, func() {
		order = append(order, fmt.Sprintf("control@%v", g.Now()))
	})
	g.RunUntil(11 * time.Millisecond)
	want := []string{"control@10ms", "stripe-event"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestShardGroupHandoffDelivery checks that a handoff posted in a window
// is applied by the next barrier, never later than lookahead after its
// cause — the conservative bound cross-stripe effects rely on.
func TestShardGroupHandoffDelivery(t *testing.T) {
	k0, k1 := New(1), New(2)
	L := time.Millisecond
	g := NewShardGroup(L, k0, k1)
	var appliedAt Time = -1
	sent := 7 * time.Millisecond
	k0.At(sent, func() {
		g.PostBatch(0, 1, func() int { appliedAt = k1.Now(); return 1 })
	})
	g.RunUntil(20 * time.Millisecond)
	if appliedAt < 0 {
		t.Fatal("handoff never applied")
	}
	if appliedAt < sent || appliedAt > sent+L {
		t.Fatalf("handoff applied at %v, want within (%v, %v]", appliedAt, sent, sent+L)
	}
	if g.Handoffs() != 1 {
		t.Fatalf("Handoffs() = %d, want 1", g.Handoffs())
	}
}

// TestShardGroupEmptyAdvance: with no events at all, RunUntil must still
// land the group (and every stripe clock) on the target instant.
func TestShardGroupEmptyAdvance(t *testing.T) {
	k0, k1 := New(1), New(2)
	g := NewShardGroup(time.Millisecond, k0, k1)
	g.RunUntil(3 * time.Second)
	if g.Now() != 3*time.Second || k0.Now() != 3*time.Second || k1.Now() != 3*time.Second {
		t.Fatalf("clocks %v/%v/%v, want 3s each", g.Now(), k0.Now(), k1.Now())
	}
}

// TestShardGroupControlCancel: the control timeline is a kernel, so a
// cancelled control callback neither runs nor forces a barrier.
func TestShardGroupControlCancel(t *testing.T) {
	g := NewShardGroup(time.Millisecond, New(1), New(2))
	ran := false
	if !g.Control().At(5*time.Millisecond, func() { ran = true }).Cancel() {
		t.Fatal("Cancel found nothing pending")
	}
	g.RunUntil(10 * time.Millisecond)
	if ran || g.Windows() != 1 {
		t.Fatalf("ran=%v over %d windows; want a single window and no callback", ran, g.Windows())
	}
}
