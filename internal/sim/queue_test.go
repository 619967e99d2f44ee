package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// queueProgram is one drawn program against a kernel: what it scheduled
// (index = scheduling order = seq), what it canceled, and what fired.
type queueProgram struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	k       *Kernel
	at      []Time // the clamped time each event was queued for
	gone    []bool // canceled
	handles []Event
	fired   []int

	live, maxLive, canceled, compactions int
	sleep                                int // the timer callbacks cancel and re-arm
}

// horizon draws a delay from the shapes the mesh schedules: now, a few
// ns, a frame (≤ 1 ms), a MAC or routing timer (≤ 50 ms, ≤ 1 s), and
// anything up to 2^62 ns.
func (p *queueProgram) horizon() Time {
	switch p.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Time(p.rng.Intn(20))
	case 2, 3:
		return Time(p.rng.Int63n(int64(time.Millisecond)))
	case 4:
		return Time(p.rng.Int63n(int64(50 * time.Millisecond)))
	case 5, 6:
		return Time(p.rng.Int63n(int64(time.Second)))
	default:
		return Time(p.rng.Int63n(1 << 62))
	}
}

func (p *queueProgram) schedule(at Time) int {
	id := len(p.at)
	if at < p.k.Now() {
		at = p.k.Now()
	}
	p.at = append(p.at, at)
	p.gone = append(p.gone, false)
	p.handles = append(p.handles, p.k.At(at, func() { p.fire(id) }))
	p.live++
	p.maxLive = max(p.maxLive, p.live)
	return id
}

func (p *queueProgram) cancel(id int) {
	dead := p.k.queue.dead
	if !p.handles[id].Cancel() {
		return
	}
	if p.k.queue.dead <= dead {
		p.compactions++
	}
	p.gone[id] = true
	p.live--
	p.canceled++
}

// fire is every event's callback: it may schedule a follow-up, cancel
// and re-arm the sleep timer as mac.dutyCycle.scheduleSleep does, or
// cancel any pending event.
func (p *queueProgram) fire(id int) {
	p.live--
	p.fired = append(p.fired, id)
	if now := p.k.Now(); now != p.at[id] {
		p.t.Fatalf("seed %d: event %d for %v fired at %v", p.seed, id, p.at[id], now)
	}
	if len(p.at) < 6000 && p.rng.Intn(3) == 0 {
		p.schedule(p.k.Now() + p.horizon())
	}
	if p.rng.Intn(4) == 0 {
		p.cancel(p.sleep)
		p.sleep = p.schedule(p.k.Now() + p.horizon())
	}
	if p.rng.Intn(8) == 0 {
		p.cancelAny()
	}
}

// cancelAny cancels a pending event drawn at random, if there is one.
func (p *queueProgram) cancelAny() {
	if p.live == 0 {
		return
	}
	for i, n := p.rng.Intn(len(p.at)), 0; n < len(p.at); i, n = (i+1)%len(p.at), n+1 {
		if p.handles[i].live() {
			p.cancel(i)
			return
		}
	}
}

// bucket0 lists the pending events of bucket 0, the next ones to pop,
// in queue order.
func (p *queueProgram) bucket0() []int {
	ids := make(map[*event]int)
	for id, h := range p.handles {
		if h.live() {
			ids[h.e] = id
		}
	}
	var out []int
	b := p.k.queue.b[0]
	for c, lo := b.head, b.lo; c != nil; c, lo = c.next, 0 {
		for _, s := range c.s[lo:b.hi(c)] {
			if s.e != nil {
				out = append(out, ids[s.e])
			}
		}
	}
	return out
}

// checkQueue walks every bucket: each slot must sit in the bucket its
// time names under the current base, a live slot's event must know its
// position, and the live and tombstone counts must be the walk's.
func (p *queueProgram) checkQueue(step int) {
	q := &p.k.queue
	live, dead := 0, 0
	for i := range q.b {
		b := &q.b[i]
		for c, lo := b.head, b.lo; c != nil; c, lo = c.next, 0 {
			for j := lo; j < b.hi(c); j++ {
				s := c.s[j]
				if s.e == nil {
					dead++
					continue
				}
				live++
				if got := q.bucketOf(s.at); got != i || s.e.index != c.id<<chunkShift|j {
					p.t.Fatalf("seed %d step %d: event at %v filed in bucket %d at %d, belongs in %d, knows %d", p.seed, step, s.at, i, c.id<<chunkShift|j, got, s.e.index)
				}
			}
		}
	}
	if live != q.live || dead != q.dead {
		p.t.Fatalf("seed %d step %d: walked %d live and %d tombstones, queue counts %d and %d", p.seed, step, live, dead, q.live, q.dead)
	}
}

// earliest is the oracle for NextEventAt.
func (p *queueProgram) earliest() (Time, bool) {
	var at Time
	ok := false
	for id, h := range p.handles {
		if h.live() && (!ok || p.at[id] < at) {
			at, ok = p.at[id], true
		}
	}
	return at, ok
}

// TestQueueFiresInKeyOrder runs drawn programs — schedules at horizons
// from now to 2^62 ns, blocks of 1 000 events at one instant (the shape
// of fig1-uplink's idle-listening ticks), cancels of bucket 0's front,
// middle and back and of anything pending, runs of cancels that make
// the queue compact, single steps, ShardGroup-style NextEventAt /
// RunBefore windows, and callbacks that schedule, cancel, and cancel
// and re-arm a timer — and requires the events that survive to fire in
// exactly the order a sort by (at, seq) puts them in, NextEventAt to
// name the earliest pending time, and Stats to count what the program
// did; after every operation, checkQueue holds the buckets to their
// invariants.
func TestQueueFiresInKeyOrder(t *testing.T) {
	compactions := 0
	for seed := int64(0); seed < 40; seed++ {
		p := &queueProgram{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), k: New(1)}
		k := p.k
		p.sleep = p.schedule(5)
		p.cancel(p.sleep) // an only element
		if k.Pending() != 0 {
			t.Fatalf("seed %d: canceling the only event left %d pending", seed, k.Pending())
		}
		for step := 0; step < 300; step++ {
			switch op := p.rng.Intn(20); {
			case op < 8 || p.live == 0:
				p.schedule(k.Now() + p.horizon())
			case op == 8:
				if p.rng.Intn(4) == 0 {
					at := k.Now() + p.horizon()
					for i := 0; i < 1000; i++ {
						p.schedule(at)
					}
				}
			case op == 9:
				p.schedule(k.Now() - Time(p.rng.Intn(10))) // clamped to now
			case op == 10:
				if ids := p.bucket0(); len(ids) > 0 {
					p.cancel(ids[0])
				}
			case op == 11:
				if ids := p.bucket0(); len(ids) > 0 {
					p.cancel(ids[len(ids)/2])
				}
			case op == 12:
				if ids := p.bucket0(); len(ids) > 0 {
					p.cancel(ids[len(ids)-1])
				}
			case op == 13:
				for n := p.rng.Intn(600); n > 0; n-- {
					p.cancelAny()
				}
			case op == 14:
				p.cancelAny()
			case op < 17:
				k.Step()
			case op < 19:
				// A barrier as ShardGroup draws it: peek, then run up to
				// the earliest event plus a lookahead, strictly before.
				at, ok := k.NextEventAt()
				if wantAt, wantOK := p.earliest(); at != wantAt && ok || ok != wantOK {
					t.Fatalf("seed %d: NextEventAt = %v,%v, want %v,%v", seed, at, ok, wantAt, wantOK)
				}
				if ok {
					k.RunBefore(at + Time(p.rng.Int63n(int64(400*time.Microsecond))))
				}
			default:
				k.RunUntil(k.Now() + p.horizon())
			}
			if k.Pending() != p.live {
				t.Fatalf("seed %d step %d: Pending = %d, want %d", seed, step, k.Pending(), p.live)
			}
			p.checkQueue(step)
		}
		k.Run()
		compactions += p.compactions

		var want []int
		for id := range p.at {
			if !p.gone[id] {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return p.at[want[i]] < p.at[want[j]] })
		if !reflect.DeepEqual(p.fired, want) {
			t.Fatalf("seed %d: %d fired, %d want; first difference at %d", seed, len(p.fired), len(want), firstDiff(p.fired, want))
		}
		wantStats := Stats{
			Scheduled:    uint64(len(p.at)),
			Fired:        uint64(len(want)),
			Canceled:     uint64(p.canceled),
			Reused:       uint64(len(p.at) - p.maxLive), // one struct per peak pending event
			MaxHeapDepth: p.maxLive,
		}
		if st := k.Stats(); st != wantStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, st, wantStats)
		}
		if k.Pending() != 0 || k.queue.live != 0 {
			t.Fatalf("seed %d: %d pending after Run", seed, k.Pending())
		}
	}
	if compactions == 0 {
		t.Fatal("no program made the queue compact")
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// band is one slice of a workload's schedule horizons: a weight and the
// range [lo, hi) a horizon in it is drawn from.
type band struct {
	weight int
	lo, hi Time
}

// queueMix is a schedule/pop load with the shape of one workload's
// kernel: timers re-armed as they fire at horizons drawn from bands,
// cancels that take back a recently armed timer and arm it again (an
// acknowledgement taking back a retry, a sleep deadline moved), and
// optionally a block of repeaters that tick at one instant every second
// (CSMA.Start's idle-listening ticks, one per node).
type queueMix struct {
	timers int
	bands  []band
	cancel int // per 100 firings, how many cancel and re-arm a timer
	block  int
}

var (
	// meshProbeMix: mesh-probe set-up keeps about 283 events queued;
	// its schedules, by horizon (counted over 60 set-ups), are
	// mostly 4–8 ms ahead, and for every 100 firings 60 events are
	// canceled, most 2–4 ms before they were due.
	meshProbeMix = queueMix{timers: 283, cancel: 60, bands: []band{
		{677, 1 << 18, 1 << 19}, {1964, 1 << 19, 1 << 20}, {148, 1 << 20, 1 << 21},
		{2301, 1 << 21, 1 << 22}, {5933, 1 << 22, 1 << 23}, {1677, 1 << 24, 1 << 25},
		{1020, 1 << 26, 1 << 27}, {367, 1 << 27, 1 << 28}, {88, 1 << 29, 1 << 30},
		{44, 1 << 33, 1 << 34},
	}}
	// fig1UplinkMix: fig1-uplink keeps about 5 000 events queued, 1 000
	// of them its nodes' idle-listening ticks; of a set-up's schedules
	// 112 k are ≤ 1 ms ahead, 50 k ≤ 5 ms, 56 k ≤ 50 ms, 42 k ≤ 1 s and
	// 14 k beyond (ROADMAP item 23), and 10.6 % of its schedules are
	// canceled.
	fig1UplinkMix = queueMix{timers: 4000, cancel: 12, block: 1000, bands: []band{
		{112, 1, time.Millisecond}, {50, time.Millisecond, 5 * time.Millisecond},
		{56, 5 * time.Millisecond, 50 * time.Millisecond}, {42, 50 * time.Millisecond, time.Second},
		{14, time.Second, 10 * time.Second},
	}}
)

// start arms the mix on a new kernel. Its draws come from tables filled
// once from a seeded generator, so the load itself neither allocates
// nor draws from the kernel.
func (m queueMix) start() *Kernel {
	rng := rand.New(rand.NewSource(1))
	total := 0
	for _, b := range m.bands {
		total += b.weight
	}
	horizons := make([]Time, 1<<14)
	for i := range horizons {
		w := rng.Intn(total)
		for _, b := range m.bands {
			if w < b.weight {
				horizons[i] = b.lo + Time(rng.Int63n(int64(b.hi-b.lo)))
				break
			}
			w -= b.weight
		}
	}
	// A pick is a chance in its high bits and, in its low six, how many
	// arms ago the timer it cancels was armed.
	picks := make([]int, 1<<14)
	for i := range picks {
		picks[i] = rng.Intn(100)<<6 | 1 + rng.Intn(63)
	}
	k := New(1)
	timers := make([]Event, m.timers)
	fires := make([]func(), m.timers)
	var armed [64]int // the timers armed last, by arm count mod 64
	next := 0
	arm := func(j int) {
		timers[j] = k.Schedule(horizons[next%len(horizons)], fires[j])
		armed[next%64] = j
		next++
	}
	for j := range fires {
		j := j
		fires[j] = func() {
			arm(j)
			if p := picks[next%len(picks)]; p>>6 < m.cancel {
				o := armed[(next-p&63)%64]
				timers[o].Cancel()
				arm(o)
			}
		}
		arm(j)
	}
	for i := 0; i < m.block; i++ {
		k.Every(time.Second, 0, func() {})
	}
	return k
}

// BenchmarkQueue times one fired event of each workload's mix, with the
// schedules and cancels it sets off (ns/op is per fired event).
func BenchmarkQueue(b *testing.B) {
	for _, c := range []struct {
		name string
		mix  queueMix
	}{{"mesh-probe", meshProbeMix}, {"fig1-uplink", fig1UplinkMix}} {
		b.Run(c.name, func(b *testing.B) {
			k := c.mix.start()
			k.RunFor(30 * time.Second) // warm: the event pool and the queue's chunks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}

// TestQueueAllocFree: once warm, the queue files, refiles, pops and
// cancels without allocating, under fig1-uplink's mix of
// horizons with its recurring 1 000-event block at one instant. Run
// without -race, whose instrumentation allocates.
func TestQueueAllocFree(t *testing.T) {
	k := fig1UplinkMix.start()
	k.RunFor(30 * time.Second)
	fired := k.Stats().Fired
	// One measured run of 100 virtual seconds: a single allocation in
	// it shows, where an average over many short runs could round it
	// away.
	if avg := testing.AllocsPerRun(1, func() { k.RunFor(100 * time.Second) }); avg != 0 {
		t.Errorf("200 virtual seconds of the fig1-uplink mix allocate %v times in the second 100, want 0", avg)
	}
	if n := k.Stats().Fired - fired; n < 1_000_000 {
		t.Fatalf("only %d events fired in 200 virtual seconds", n)
	}
	if k.Pending() < 4900 {
		t.Fatalf("%d events queued, want the mix's 5 000", k.Pending())
	}
}
