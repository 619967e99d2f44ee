package gateway

import (
	"sync"
	"time"

	"iiotds/internal/clock"
)

// Coalescer rate-limits representation pushes for one resource. The
// first offer after a quiet period goes out immediately; offers arriving
// within min of the last push are held, newest-wins, and flushed once on
// the trailing edge — so a sensor bursting 100 updates in 50 ms costs
// observers two notifications (the leading one and the final state), not
// a hundred.
type Coalescer struct {
	sched clock.Scheduler
	min   time.Duration
	out   func(contentFormat uint32, payload []byte)

	mu         sync.Mutex
	started    bool
	last       time.Duration // sched.Now() of the last push
	hasPending bool
	pendingCF  uint32
	pending    []byte
}

// NewCoalescer builds a coalescer pushing through out. min <= 0 disables
// coalescing (every offer pushes). out receives a payload it owns.
func NewCoalescer(sched clock.Scheduler, min time.Duration, out func(cf uint32, payload []byte)) *Coalescer {
	return &Coalescer{sched: sched, min: min, out: out}
}

// Offer submits a new representation. The payload is copied when held;
// when pushed through immediately it is handed to out as-is. Offer
// reports whether the representation replaced a held one that was never
// pushed (coalesced).
func (co *Coalescer) Offer(contentFormat uint32, payload []byte) (coalesced bool) {
	if co.min <= 0 {
		co.out(contentFormat, payload)
		return false
	}
	now := co.sched.Now()
	co.mu.Lock()
	if !co.hasPending && (!co.started || now-co.last >= co.min) {
		co.started = true
		co.last = now
		co.mu.Unlock()
		co.out(contentFormat, payload)
		return false
	}
	coalesced = co.hasPending
	co.pendingCF = contentFormat
	co.pending = append(co.pending[:0], payload...)
	co.hasPending = true
	delay := co.last + co.min - now
	co.mu.Unlock()
	if !coalesced { // the first held offer arms the trailing push
		co.sched.Schedule(max(delay, 0), co.Flush)
	}
	return coalesced
}

// Flush pushes the pending representation now, if any.
func (co *Coalescer) Flush() {
	co.mu.Lock()
	if !co.hasPending {
		co.mu.Unlock()
		return
	}
	co.hasPending = false
	cf, p := co.pendingCF, co.pending
	// Hand the buffer to out (which may retain it asynchronously); the
	// next held offer allocates a fresh one.
	co.pending = nil
	co.last = co.sched.Now()
	co.mu.Unlock()
	co.out(cf, p)
}
