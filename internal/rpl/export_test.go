package rpl

import "time"

// Accessors and operations only tests use.

// GlobalRepair (root only) bumps the DODAG version, forcing the whole
// network to rebuild — RPL's heavyweight repair.
func (r *Router) GlobalRepair() {
	if !r.isRoot {
		panic("rpl: GlobalRepair on non-root")
	}
	r.version++
	r.trickle.Reset()
}

// RouteCount returns the number of stored downward routes.
func (r *Router) RouteCount() int { return len(r.downRoutes) }

// Version returns the DODAG version this node participates in.
func (r *Router) Version() uint8 { return r.version }

// Rank returns the node's current rank (InfiniteRank when detached).
func (r *Router) Rank() uint16 { return r.rank }

// Interval returns the current interval length.
func (t *Trickle) Interval() time.Duration { return t.interval }
