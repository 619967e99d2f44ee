// Package rpl implements an RPL-style routing layer (paper ref [14]) for
// the emulated mesh: DODAG formation with trickle-timed DIO beacons,
// ETX-based parent selection (MRHOF-like), storing-mode downward routes
// via DAOs, poisoning and local repair, partition awareness (paper ref
// [44]), and RNFD-style collaborative detection of border-router failure
// (paper ref [32]).
package rpl

import (
	"time"

	"iiotds/internal/sim"
)

// TrickleConfig parameterizes the RFC 6206 trickle timer that paces DIO
// transmissions: exponentially backing off while the network is
// consistent, resetting to Imin when an inconsistency is detected. This
// is the mechanism that makes §V-D's "self-organized but cheap"
// maintenance possible: control overhead decays to almost nothing in
// steady state yet reacts in O(Imin) to change.
type TrickleConfig struct {
	// Imin is the minimum interval (default 500 ms).
	Imin time.Duration
	// Doublings is how many times the interval may double (default 5,
	// i.e. Imax = 16 s with the default Imin).
	Doublings int
	// K is the redundancy constant: transmission is suppressed when K
	// or more consistent messages were heard in the interval (default 3).
	K int
}

func (c *TrickleConfig) applyDefaults() {
	if c.Imin == 0 {
		c.Imin = 500 * time.Millisecond
	}
	if c.Doublings == 0 {
		c.Doublings = 5
	}
	if c.K == 0 {
		c.K = 3
	}
}

// Trickle is one RFC 6206 timer instance.
type Trickle struct {
	k        *sim.Kernel
	cfg      TrickleConfig
	transmit func()

	interval time.Duration
	counter  int
	fireEv   sim.Event
	endEv    sim.Event
	running  bool
	// Prebuilt fire and endInterval: an interval schedules both without
	// allocating.
	fireFn, endFn func()

	// Resets counts timer resets; Suppressed counts suppressed
	// transmissions (for E10's overhead accounting).
	Resets     int
	Suppressed int
	Sent       int
}

// NewTrickle creates a stopped trickle timer that calls transmit when it
// decides to send.
func NewTrickle(k *sim.Kernel, cfg TrickleConfig, transmit func()) *Trickle {
	cfg.applyDefaults()
	t := &Trickle{k: k, cfg: cfg, transmit: transmit}
	t.fireFn, t.endFn = t.fire, t.endInterval
	return t
}

// Start begins the timer at Imin.
func (t *Trickle) Start() {
	if t.running {
		return
	}
	t.running = true
	t.interval = t.cfg.Imin
	t.beginInterval()
}

// Stop halts the timer.
func (t *Trickle) Stop() {
	t.running = false
	t.fireEv.Cancel()
	t.endEv.Cancel()
}

// Hear records a consistent message heard from a neighbor; enough of them
// suppress our own transmission.
func (t *Trickle) Hear() { t.counter++ }

// Reset signals an inconsistency: the interval drops to Imin so the news
// propagates quickly.
func (t *Trickle) Reset() {
	if !t.running {
		return
	}
	t.Resets++
	if t.interval == t.cfg.Imin {
		return // already at minimum; RFC 6206 §4.2 resets only larger intervals
	}
	t.interval = t.cfg.Imin
	t.fireEv.Cancel()
	t.endEv.Cancel()
	t.beginInterval()
}

func (t *Trickle) beginInterval() {
	t.counter = 0
	// Fire at a uniformly random point in the second half of the interval.
	half := t.interval / 2
	at := half + time.Duration(t.k.Rand().Int63n(int64(half)))
	t.fireEv = t.k.Schedule(at, t.fireFn)
	t.endEv = t.k.Schedule(t.interval, t.endFn)
}

func (t *Trickle) fire() {
	if !t.running {
		return
	}
	if t.counter < t.cfg.K {
		t.Sent++
		t.transmit()
	} else {
		t.Suppressed++
	}
}

func (t *Trickle) endInterval() {
	if !t.running {
		return
	}
	max := t.cfg.Imin << uint(t.cfg.Doublings)
	t.interval *= 2
	if t.interval > max {
		t.interval = max
	}
	t.beginInterval()
}
