// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate on which the multi-node industrial-IoT
// emulation runs: radios, MACs, routing protocols, and application logic
// all schedule their work as events on a single virtual clock. Determinism
// is a design rule (DESIGN.md §5): all randomness flows from one seeded
// generator owned by the kernel, events at equal timestamps fire in
// scheduling order, and no component may consult the wall clock.
//
// Scheduling is allocation-light: fired and canceled events return their
// backing structs to a kernel-local free pool at once, and the event
// queue (queue.go, a monotone radix queue) reuses its chunks. A canceled
// event leaves a tombstone in the queue that is dropped when the queue
// reaches it; Pending and Stats count live events only. Handles returned
// by the Schedule family are generation-checked values — operating on a
// handle whose event has already fired (or whose slot was recycled) is a
// safe no-op.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation (t = 0).
type Time = time.Duration

// event is the kernel-owned scheduling record. Structs are pooled: after
// an event fires or is canceled its struct goes back to the kernel's free
// list and its generation advances, invalidating outstanding handles.
type event struct {
	k     *Kernel
	index int // queue position (see eventQueue.file), -1 when not queued
	fn    func()
	gen   uint64
}

// Event is a handle to a scheduled callback, created by the Schedule
// family of Kernel methods. It is a small value: copy it freely. The zero
// Event is valid and inert. A handle goes stale once its event fires or
// is canceled; Cancel and Pending on a stale handle are safe no-ops even
// after the underlying slot has been recycled for a different event.
type Event struct {
	e   *event
	gen uint64
	at  Time
}

// live reports whether the handle still refers to a queued event.
func (ev Event) live() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.index >= 0
}

// Cancel prevents the event from firing, removing it from the kernel's
// queue immediately. Canceling an already-fired, already-canceled, or
// zero event is a no-op. It reports whether the event was still pending.
func (ev Event) Cancel() bool {
	if !ev.live() {
		return false
	}
	e := ev.e
	e.k.queue.cancel(e.index)
	e.k.stats.Canceled++
	e.k.recycle(e)
	return true
}

// Stats are the kernel's scheduling counters. Trials report them through
// trial.RunStats so the experiment runner can account for the event load
// behind every table.
type Stats struct {
	// Scheduled counts events accepted by Schedule/At/Every.
	Scheduled uint64 `json:"scheduled"`
	// Fired counts events executed.
	Fired uint64 `json:"fired"`
	// Canceled counts events removed from the queue before firing.
	Canceled uint64 `json:"canceled"`
	// Reused counts schedules served from the free pool instead of a
	// fresh allocation.
	Reused uint64 `json:"reused"`
	// MaxHeapDepth is the high-water mark of the event queue.
	MaxHeapDepth int `json:"max_heap_depth"`
}

// Add merges o into s: counters sum, high-water marks take the max.
func (s *Stats) Add(o Stats) {
	s.Scheduled += o.Scheduled
	s.Fired += o.Fired
	s.Canceled += o.Canceled
	s.Reused += o.Reused
	if o.MaxHeapDepth > s.MaxHeapDepth {
		s.MaxHeapDepth = o.MaxHeapDepth
	}
}

// Kernel is a discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use: the simulation is single-threaded by
// construction, which is what makes runs reproducible. Parallelism lives
// one layer up (trial.RunTrials), where independent trials each own a
// kernel.
type Kernel struct {
	now   Time
	queue eventQueue
	rng   *rand.Rand // draws from src
	free  []*event
	stats Stats
	src   source
}

// New returns a kernel whose random generator is seeded with seed.
// Two kernels constructed with the same seed and driven by the same
// event program produce identical executions.
func New(seed int64) *Kernel {
	k := &Kernel{}
	k.src.Seed(seed)
	k.rng = rand.New(&k.src)
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random generator. All simulated
// randomness (link loss, jitter, workload arrivals) must come from here.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Float64 draws what Rand().Float64() would draw, from the same stream,
// without going through the Source interface.
func (k *Kernel) Float64() float64 {
again:
	f := float64(k.src.Int63()) / (1 << 63)
	if f == 1 {
		goto again // as math/rand does
	}
	return f
}

// Stats returns a snapshot of the kernel's scheduling counters.
func (k *Kernel) Stats() Stats { return k.stats }

// recycle invalidates outstanding handles to e and returns its struct to
// the free pool.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.index = -1
	k.free = append(k.free, e)
}

// Schedule runs fn after d of virtual time. A negative d is treated as 0
// (fire as soon as the kernel resumes, after already-queued events at the
// current instant).
func (k *Kernel) Schedule(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (k *Kernel) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < k.now {
		t = k.now
	}
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		k.stats.Reused++
	} else {
		e = &event{k: k}
	}
	e.fn = fn
	k.queue.push(t, e)
	k.stats.Scheduled++
	if d := k.queue.live; d > k.stats.MaxHeapDepth {
		k.stats.MaxHeapDepth = d
	}
	return Event{e: e, gen: e.gen, at: t}
}

// Every schedules fn to run every interval, starting after the first
// interval elapses. The returned Repeater can be stopped. If jitter is
// non-zero, each period is perturbed by a uniform offset in [0, jitter)
// drawn from the kernel RNG — the standard trick protocols use to avoid
// synchronization artifacts.
func (k *Kernel) Every(interval, jitter Time, fn func()) *Repeater {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive interval %v", interval))
	}
	r := &Repeater{k: k, interval: interval, jitter: jitter, fn: fn}
	r.fireFn = r.fire
	r.schedule()
	return r
}

// Repeater is a periodic event created by Every.
type Repeater struct {
	k        *Kernel
	interval Time
	jitter   Time
	fn       func()
	fireFn   func() // prebuilt r.fire: a tick schedules without allocating
	ev       Event
	stopped  bool
}

func (r *Repeater) schedule() {
	d := r.interval
	if r.jitter > 0 {
		d += Time(r.k.rng.Int63n(int64(r.jitter)))
	}
	r.ev = r.k.Schedule(d, r.fireFn)
}

func (r *Repeater) fire() {
	if r.stopped {
		return
	}
	r.fn()
	if !r.stopped {
		r.schedule()
	}
}

// Stop cancels the repeater. It is idempotent.
func (r *Repeater) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.ev.Cancel()
}

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool { return k.step(math.MaxInt64) }

// step executes the next event if it is due at or before limit.
func (k *Kernel) step(limit Time) bool {
	s, ok := k.queue.pop(limit)
	if !ok {
		return false
	}
	e := s.e
	k.now = s.at
	k.stats.Fired++
	fn := e.fn
	// Recycle before running fn: handles to this event are already stale,
	// and events scheduled inside fn can reuse the slot immediately.
	k.recycle(e)
	fn()
	return true
}

// Run executes events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if the queue drained earlier or later events remain).
func (k *Kernel) RunUntil(t Time) {
	for k.step(t) {
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// RunBefore executes events with timestamps strictly before t, then
// advances the clock to exactly t. It is the windowed-execution
// primitive of the conservative shard scheduler (shard.go): a shard may
// run freely up to — but not including — the next synchronization
// barrier, so events AT the barrier instant run in the following window
// after cross-shard handoffs have been applied.
func (k *Kernel) RunBefore(t Time) {
	if k.now < t { // else nothing queued is before t
		for k.step(t - 1) {
		}
		k.now = t
	}
}

// NextEventAt returns the timestamp of the earliest queued event, and
// whether one exists. The shard scheduler uses it to size adaptive
// synchronization windows without popping anything.
func (k *Kernel) NextEventAt() (Time, bool) { return k.queue.peek() }

// Pending returns the number of queued events. It counts only events
// that will still fire: a canceled one is not counted, though its slot
// may linger in the queue until the queue reaches it.
func (k *Kernel) Pending() int { return k.queue.live }
