package sim

// Accessors and operations only tests use.

// Fired returns the number of events executed so far; useful for tests and
// runaway detection.
func (k *Kernel) Fired() uint64 { return k.stats.Fired }

// Pending reports whether the event is still queued.
func (ev Event) Pending() bool { return ev.live() }

// At returns the virtual time at which the event fires (or fired, or
// would have fired if canceled).
func (ev Event) At() Time { return ev.at }
