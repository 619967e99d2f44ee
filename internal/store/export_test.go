package store

import (
	"sort"
	"time"
)

// The accessors below read a replica's or an engine's state for tests;
// no program needs them.

// Mode returns the replica's mode.
func (r *Replica) Mode() Mode { return r.cfg.Mode }

// SeriesNames returns the locally known series, sorted.
func (r *Replica) SeriesNames() []string {
	var names []string
	r.state.visitEngines(func(name string, _ *SeriesEngine) { names = append(names, name) })
	sort.Strings(names)
	return names
}

// LocalSeriesRange returns the replica's local view of series points
// with from <= T < to, bypassing quorum.
func (r *Replica) LocalSeriesRange(series string, from, to time.Duration) []Point {
	var pts []Point
	r.state.visitEngines(func(name string, eng *SeriesEngine) {
		if name == series {
			pts = eng.Range(from, to)
		}
	})
	return pts
}

// SetRetention bounds the closed segments retained; the oldest segment
// is evicted when the bound is exceeded (0 = keep everything).
func (e *SeriesEngine) SetRetention(maxClosedSegments int) {
	e.mu.Lock()
	e.maxSegs = maxClosedSegments
	e.enforceRetention()
	e.mu.Unlock()
}

// Append records one point.
func (e *SeriesEngine) Append(p Point) {
	e.mu.Lock()
	e.append(p)
	e.mu.Unlock()
}

// Compact force-merges every closed segment into one.
func (e *SeriesEngine) Compact() {
	e.mu.Lock()
	if len(e.closed) > 1 {
		e.mergeFrom(0)
	}
	e.mu.Unlock()
}
