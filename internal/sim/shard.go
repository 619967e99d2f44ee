// Conservative parallel discrete-event scheduling for one deployment.
//
// A ShardGroup drives several kernels ("stripes") through shared virtual
// time in lockstep windows. The discipline is classic conservative PDES:
// no stripe may run past the earliest event any stripe still has queued
// plus the model's lookahead — the minimum virtual delay before anything
// one stripe does can become visible to another (for the radio medium,
// the minimum frame airtime: a frame transmitted at t delivers no
// earlier than t + airtime). Inside a window the stripes share nothing
// and may therefore execute on separate OS threads; at the window
// barrier, cross-stripe handoffs queued with PostBatch are applied in a
// fixed (source stripe, append) order on the driver goroutine.
//
// Determinism (DESIGN.md §5) survives by construction: the window
// sequence is a pure function of the stripes' queue states at barriers,
// each stripe's execution inside a window is single-threaded against its
// own kernel and RNG, and the barrier drain order is fixed. The worker
// count (SetWorkers) only chooses how many OS threads the per-window
// stripe runs are spread over — it can never reorder a draw — so a run
// is byte-identical at any worker count, the same property the trial
// runner gives independent trials.
//
// Execution: windows are short (a frame's airtime holds a handful of
// events), so what a window costs is how it is started and joined. A
// window with work on at most one stripe, or in a stretch of the run
// where windows hold too few events for a second core to repay the
// cache traffic, runs inline on the driver. The others are shared with
// stripe workers that live as long as the RunUntil call that first
// needed them: they claim stripes one at a time beside the driver, and
// between windows spin on the claim counter for a bounded time before
// they park. A worker that is slow to wake costs nothing — the driver
// has claimed its stripes by then.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardGroup synchronizes a fixed set of kernels (stripes) through
// common virtual time. The stripe count is part of the model: it decides
// which events are separated by a barrier. The worker count is not — it
// is pure execution policy.
//
// Thread contract: all ShardGroup methods are driver-goroutine only.
// The exception is PostBatch, which must be called from the posting
// stripe's own execution (its kernel callbacks) during a window.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Time
	workers   int
	now       Time

	// out[src][dst] holds the handoffs stripe src queued for stripe dst
	// during the current window; an entry applies one or more of them and
	// reports how many. Only stripe src's execution appends to
	// out[src][*], so no locking is needed; the drain happens after the
	// barrier, on the driver goroutine, from due — the two sets of queues
	// trade places at every barrier.
	out, due [][][]func() int

	ctl *Kernel // the control timeline; see Control

	busy []*Kernel // stripes with an event inside the current window; reused
	crew *crew     // the running RunUntil's stripe workers, once a window needed them

	windows  uint64
	shared   uint64
	handoffs uint64

	// load is the recent events-per-window average (each window weighs
	// 1/8), fired the stripes' event total when it was last updated. Both
	// are functions of the run, not of the host, like everything else the
	// inline-or-shared decision reads.
	load  float64
	fired uint64
}

// shareLoad is the events-per-window average from which windows are
// worth sharing. Measured on a 2-CPU host with the workers never parked:
// at 4 events per window (600 nodes over 4 stripes) shared and inline
// windows cost the same wall time and the shared ones a second core; at
// 16 and at 56 (3000 nodes over 8 stripes, steady state and convergence)
// sharing is 1.2–1.5x faster.
const shareLoad = 8

// NewShardGroup creates a group over the given kernels. lookahead is the
// model's minimum cross-stripe visibility delay and must be positive;
// windows never extend more than lookahead past the earliest queued
// event, which is what makes cross-stripe deliveries timing-exact (an
// effect produced at t lands at its target no earlier than t+lookahead,
// and every barrier falls at or before that instant).
func NewShardGroup(lookahead Time, kernels ...*Kernel) *ShardGroup {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead %v must be positive", lookahead))
	}
	if len(kernels) == 0 {
		panic("sim: ShardGroup needs at least one kernel")
	}
	queues := func() [][][]func() int {
		q := make([][][]func() int, len(kernels))
		for i := range q {
			q[i] = make([][]func() int, len(kernels))
		}
		return q
	}
	return &ShardGroup{kernels: kernels, lookahead: lookahead, workers: 1, out: queues(), due: queues(), ctl: New(0)}
}

// Kernels returns the stripes in index order.
func (g *ShardGroup) Kernels() []*Kernel { return g.kernels }

// Kernel returns stripe i's kernel.
func (g *ShardGroup) Kernel(i int) *Kernel { return g.kernels[i] }

// Stripes returns the stripe count.
func (g *ShardGroup) Stripes() int { return len(g.kernels) }

// Lookahead returns the group's conservative lookahead.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Now returns the group's virtual time (the last barrier instant).
func (g *ShardGroup) Now() Time { return g.now }

// Windows returns how many synchronization windows have run.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// SharedWindows returns how many of those windows stripe workers took
// part in. Unlike every other figure the group reports it depends on the
// worker count and on GOMAXPROCS: it says how the run was executed, and
// belongs in no result.
func (g *ShardGroup) SharedWindows() uint64 { return g.shared }

// Handoffs returns how many cross-stripe handoffs have been applied.
func (g *ShardGroup) Handoffs() uint64 { return g.handoffs }

// SetWorkers sets how many OS threads per-window stripe execution fans
// across. n is clamped to [1, Stripes()]. The setting never affects
// results, only wall-clock time.
func (g *ShardGroup) SetWorkers(n int) {
	g.workers = max(1, min(n, len(g.kernels)))
}

// Workers returns the effective worker count: the setting, held to the
// number of threads the Go runtime will run at once — a worker beyond
// that could only wait for a processor another worker holds.
func (g *ShardGroup) Workers() int { return min(g.workers, runtime.GOMAXPROCS(0)) }

// PostBatch queues apply to run at the next barrier, attributed to
// source stripe src. apply executes on the driver goroutine with every
// stripe quiescent, may mutate stripe dst's state (typically scheduling
// events on its kernel), and returns how many handoffs it applied, which
// is what Handoffs counts. Batches drain in (src, dst, append) order, so
// the apply sequence — and any randomness it consumes from the target
// kernels — is identical at every worker count; a batch posted by an
// apply drains at the barrier after the one running it. The caller keeps
// its own (src, dst) queue: posting one prebuilt apply per window
// instead of one closure per handoff is what lets a steady-state sender
// allocate nothing.
func (g *ShardGroup) PostBatch(src, dst int, apply func() int) {
	g.out[src][dst] = append(g.out[src][dst], apply)
}

// Control returns the control timeline: a kernel for driver-time
// callbacks (workload arming, fault injection, convergence polling)
// that must run with every stripe quiescent. Its events run on the
// driver goroutine at their exact instant — windows are cut short to
// land a barrier there — after that barrier's handoffs and before any
// stripe event at that instant. Schedule on it and cancel freely, but
// only the group advances it. It is not one of Kernels(), and its
// events are not in Stats().
func (g *ShardGroup) Control() *Kernel { return g.ctl }

// nextEvent returns the earliest queued event across all stripes.
func (g *ShardGroup) nextEvent() (Time, bool) {
	var best Time
	ok := false
	for _, k := range g.kernels {
		if at, has := k.NextEventAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// runWindow advances every stripe to end (executing events strictly
// before it), then applies the window's handoffs. Which goroutine runs
// a stripe is decided from what the barrier shows — how many stripes
// have an event before end, how many events recent windows held — and
// can decide nothing else: stripes share nothing inside a window.
func (g *ShardGroup) runWindow(end Time, workers int) {
	busy := g.busy[:0]
	for _, k := range g.kernels {
		if at, ok := k.NextEventAt(); ok && at < end {
			busy = append(busy, k)
		} else {
			k.RunBefore(end) // nothing to run: only the clock moves
		}
	}
	g.busy = busy
	if len(busy) > 1 && workers > 1 && g.load >= shareLoad {
		if g.crew == nil {
			g.crew = muster(workers - 1) // the driver is the other one
		}
		g.crew.run(busy, end)
		g.shared++
	} else {
		for _, k := range busy {
			k.RunBefore(end)
		}
	}
	g.windows++
	g.now = end
	fired := g.Stats().Fired
	g.load += (float64(fired-g.fired) - g.load) / 8
	g.fired = fired
	// Handoffs applied at this barrier may themselves post: those land in
	// the other, empty set of queues and drain at the NEXT barrier.
	g.out, g.due = g.due, g.out
	for s := range g.due {
		for d, q := range g.due[s] {
			for i, apply := range q {
				g.handoffs += uint64(apply())
				q[i] = nil
			}
			g.due[s][d] = q[:0]
		}
	}
}

// RunUntil advances the whole group to virtual time t. Windows are sized
// adaptively: each extends to the earliest queued event plus lookahead,
// cut short by pending control callbacks and by t itself. Events at
// exactly t stay queued (they run first thing in the next call), which
// is the windowed analogue of RunBefore's strict bound. Stripe workers
// the call started are gone when it returns.
func (g *ShardGroup) RunUntil(t Time) {
	workers := g.Workers()
	for {
		g.ctl.RunUntil(g.now) // control callbacks may add more, also at this instant
		if g.now >= t {
			break
		}
		end := t
		if at, ok := g.ctl.NextEventAt(); ok && at < end {
			end = at
		}
		if next, ok := g.nextEvent(); ok && next+g.lookahead < end {
			end = next + g.lookahead
		}
		g.runWindow(end, workers)
	}
	if g.crew != nil {
		g.crew.dismiss()
		g.crew = nil
	}
}

// RunFor is RunUntil(Now()+d).
func (g *ShardGroup) RunFor(d Time) { g.RunUntil(g.now + d) }

// Stats returns the aggregated scheduling counters of every stripe.
func (g *ShardGroup) Stats() Stats {
	var s Stats
	for _, k := range g.kernels {
		s.Add(k.Stats())
	}
	return s
}

// crew is the stripe workers of one RunUntil call and the window they
// share with the driver. The driver publishes a window by storing its
// busy-stripe count in ticket; whoever lowers ticket from n owns stripe
// busy[n-1] for that window, and lowers left once the stripe has run.
// busy and end are written before that store and read only after a
// successful claim, so the two counters order every access to them and
// to the stripes themselves.
type crew struct {
	size int32 // workers, not counting the driver
	busy []*Kernel
	end  Time

	ticket atomic.Int32 // stripes of the window nobody has claimed; -1 sends the workers home
	left   atomic.Int32 // stripes of the window that have not finished

	// Waiting is a bounded spin, then a park on wake, so an idle crew
	// does not hold cores this host shares with others.
	mu     sync.Mutex
	wake   sync.Cond
	parked atomic.Int32
}

// spinPolls bounds how long a waiter polls before it parks, about
// 1.5 ms on the host above. It has to outlast what separates two shared
// windows — the serial handoff drain, control callbacks, a run of
// single-stripe windows — because a parked worker is worth nothing: by
// the time a futex wake has reached it the driver has run the window
// alone, and paid for the wake. At a quarter of this bound the
// 3000-node fleet above ran no faster on two workers than on one.
const spinPolls = 1 << 20

// muster starts a crew of n workers.
func muster(n int) *crew {
	c := &crew{size: int32(n)}
	c.wake.L = &c.mu
	for i := 0; i < n; i++ {
		go c.work()
	}
	return c
}

// run executes one window over the busy stripes, the driver claiming
// beside the workers, and returns when every stripe has reached end.
func (c *crew) run(busy []*Kernel, end Time) {
	c.busy, c.end = busy, end
	c.left.Store(int32(len(busy)))
	c.ticket.Store(int32(len(busy)))
	c.rouse()
	c.claim()
	c.await(&c.left, true)
}

// dismiss sends the workers home and returns when the last has left. No
// window is open, so ticket is 0 and left is free to count them out.
func (c *crew) dismiss() {
	c.left.Store(c.size)
	c.ticket.Store(-1)
	c.rouse()
	c.await(&c.left, true)
}

func (c *crew) work() {
	for c.claim() >= 0 {
		c.await(&c.ticket, false)
	}
	if c.left.Add(-1) == 0 {
		c.rouse()
	}
}

// claim runs unclaimed stripes of the open window until there are none
// and returns the ticket value that ended it: 0, or -1 after dismiss.
func (c *crew) claim() int32 {
	for {
		n := c.ticket.Load()
		if n <= 0 {
			return n
		}
		if c.ticket.CompareAndSwap(n, n-1) {
			c.busy[n-1].RunBefore(c.end)
			if c.left.Add(-1) == 0 {
				c.rouse() // the driver may have parked waiting for this stripe
			}
		}
	}
}

// await returns once (v == 0) == zero.
func (c *crew) await(v *atomic.Int32, zero bool) {
	for i := 0; i < spinPolls; i++ {
		if (v.Load() == 0) == zero {
			return
		}
	}
	c.mu.Lock()
	c.parked.Add(1)
	for (v.Load() == 0) != zero {
		c.wake.Wait()
	}
	c.parked.Add(-1)
	c.mu.Unlock()
}

// rouse wakes parked waiters after a store they may be waiting for. A
// waiter counts itself parked before its last look at the value, so
// either it sees the store or rouse sees it parked.
func (c *crew) rouse() {
	if c.parked.Load() != 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}
