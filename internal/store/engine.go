// Package store is the data-storage tier of the three-layer architecture
// (Fig. 1): a segment-encoded time-series engine for telemetry and a
// hash-partitioned replicated store over it that runs each shard in CP
// (quorum) or AP (CRDT) mode — the two ends of the CAP trade-off §V-C
// analyzes for always-on industrial systems.
package store

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Point is one telemetry sample.
type Point struct {
	T time.Duration // virtual or wall time since start
	V float64
}

// SeriesEngine is the append-optimized storage engine for one series:
// an open head of raw points and a list of immutable closed Segments
// (delta-of-delta encoded) behind it. The head starts empty and doubles
// up to segSize, so a series costs what it holds until its first
// segment closes; from then on the full-size head is reused and absorbs
// appends allocation-free. When the head fills it is sorted (repairing
// any out-of-order arrivals), encoded, and closed; compaction merges
// closed segments into larger ones so long-retention series stay O(log)
// segments instead of O(points/segSize).
//
// Range semantics: AppendRange returns every retained point with
// from <= T < to in non-decreasing timestamp order; arrival order is
// preserved among equal timestamps. Out-of-order arrivals are counted
// (OutOfOrder) and placed by timestamp, not arrival.
//
// Concurrency: guarded by a mutex, so the engine is safe under the
// CoAP/socket paths; in the single-kernel emulation the lock is
// uncontended.
type SeriesEngine struct {
	mu      sync.Mutex
	segSize int
	maxSegs int // retention bound on closed segments (0 = unbounded)

	head    []Point // open segment, arrival order
	headOOO bool    // head holds at least one out-of-order point
	lastT   time.Duration
	seenAny bool
	last    Point // most recent arrival
	closed  []*Segment

	scratch []byte  // reused encode buffer
	sortBuf []Point // reused close/compact work buffer

	total       uint64 // points ever appended
	ooo         uint64 // out-of-order arrivals
	segsClosed  uint64
	compactions uint64
	evicted     uint64 // points dropped by the retention bound
}

// DefaultSegmentSize is the points-per-segment default: small enough
// that short test runs exercise the close path, large enough that the
// varint streams amortize.
const DefaultSegmentSize = 512

// compactFanIn is how many closed segments trigger (and merge in) one
// compaction: whenever compactFanIn consecutive closed segments each
// hold fewer than segSize*compactFanIn points, they merge into one.
// Repeated application yields O(log_fanIn(segments)) levels, like an
// LSM tree's size-tiered policy.
const compactFanIn = 8

// NewSeriesEngine creates an engine closing segments of segSize points
// (0 = DefaultSegmentSize).
func NewSeriesEngine(segSize int) *SeriesEngine {
	if segSize < 0 {
		panic(fmt.Sprintf("store: segment size %d", segSize))
	}
	if segSize == 0 {
		segSize = DefaultSegmentSize
	}
	return &SeriesEngine{segSize: segSize}
}

// growHead makes room for the head to hold need (<= segSize) points.
func (e *SeriesEngine) growHead(need int) {
	if need <= cap(e.head) {
		return
	}
	c := min(max(2*cap(e.head), need), e.segSize)
	e.head = append(make([]Point, 0, c), e.head...)
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

// AppendBatch records a batch of points under one lock acquisition —
// the ingest hot path. Points are bulk-copied into the open head
// (chunked at segment boundaries) rather than appended one by one, so
// the per-point cost is a vectorized copy plus a monotonicity scan.
// It does not retain pts.
func (e *SeriesEngine) AppendBatch(pts []Point) {
	if len(pts) == 0 {
		return
	}
	e.mu.Lock()
	for len(pts) > 0 {
		chunk := pts
		if room := e.segSize - len(e.head); len(chunk) > room {
			chunk = pts[:room]
		}
		e.growHead(len(e.head) + len(chunk))
		e.head = append(e.head, chunk...)
		lastT, seen := e.lastT, e.seenAny
		for i := range chunk {
			if seen && chunk[i].T < lastT {
				e.ooo++
				e.headOOO = true
			} else {
				lastT = chunk[i].T
			}
			seen = true
		}
		e.lastT, e.seenAny = lastT, seen
		e.last = chunk[len(chunk)-1]
		e.total += uint64(len(chunk))
		pts = pts[len(chunk):]
		if len(e.head) >= e.segSize {
			e.closeHead()
		}
	}
	e.mu.Unlock()
}

func (e *SeriesEngine) append(p Point) {
	if e.seenAny && p.T < e.lastT {
		e.ooo++
		e.headOOO = true
	} else {
		e.lastT = p.T
	}
	e.seenAny = true
	e.last = p
	e.growHead(len(e.head) + 1)
	e.head = append(e.head, p)
	e.total++
	if len(e.head) >= e.segSize {
		e.closeHead()
	}
}

// closeHead sorts (if needed), encodes, and closes the open head.
func (e *SeriesEngine) closeHead() {
	if len(e.head) == 0 {
		return
	}
	if e.headOOO {
		sort.SliceStable(e.head, func(i, j int) bool { return e.head[i].T < e.head[j].T })
	}
	var seg *Segment
	seg, e.scratch = newSegment(e.head, e.scratch)
	e.closed = append(e.closed, seg)
	e.head = e.head[:0]
	e.headOOO = false
	e.segsClosed++
	e.maybeCompact()
	e.enforceRetention()
}

// maybeCompact merges the newest run of small closed segments when
// compactFanIn of them have accumulated (size-tiered policy).
func (e *SeriesEngine) maybeCompact() {
	n := len(e.closed)
	if n < compactFanIn {
		return
	}
	limit := e.segSize * compactFanIn
	run := 0
	for i := n - 1; i >= 0 && e.closed[i].Count() < limit; i-- {
		run++
	}
	if run < compactFanIn {
		return
	}
	start := n - run
	var seg *Segment
	seg, e.sortBuf, e.scratch = mergeSegments(e.closed[start:], e.sortBuf, e.scratch)
	e.closed = append(e.closed[:start], seg)
	e.compactions++
}

// Compact force-merges every closed segment into one — the maintenance
// entry point the sharded store schedules in the background.
func (e *SeriesEngine) Compact() {
	e.mu.Lock()
	if len(e.closed) > 1 {
		var seg *Segment
		seg, e.sortBuf, e.scratch = mergeSegments(e.closed, e.sortBuf, e.scratch)
		e.closed = append(e.closed[:0], seg)
		e.compactions++
	}
	e.mu.Unlock()
}

// enforceRetention drops the oldest closed segments past the bound.
func (e *SeriesEngine) enforceRetention() {
	if e.maxSegs <= 0 {
		return
	}
	for len(e.closed) > e.maxSegs {
		e.evicted += uint64(e.closed[0].Count())
		e.closed = e.closed[1:]
	}
}

// Flush closes the open head early so its points reach encoded form
// without waiting for a fill.
func (e *SeriesEngine) Flush() {
	e.mu.Lock()
	e.closeHead()
	e.mu.Unlock()
}

// Len returns the number of retained points.
func (e *SeriesEngine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.head)
	for _, s := range e.closed {
		n += s.Count()
	}
	return n
}

// Total returns the number of points ever appended.
func (e *SeriesEngine) Total() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total
}

// OutOfOrder returns how many appended points arrived with a timestamp
// earlier than a previously appended one.
func (e *SeriesEngine) OutOfOrder() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ooo
}

// Last returns the most recently appended point, if any.
func (e *SeriesEngine) Last() (Point, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last, e.seenAny && e.total > e.evicted
}

// Range returns the retained points with from <= T < to in timestamp
// order (see the engine doc for the out-of-order contract).
func (e *SeriesEngine) Range(from, to time.Duration) []Point {
	return e.AppendRange(nil, from, to)
}

// AppendRange appends the retained points with from <= T < to onto dst
// in timestamp order and returns the extended slice. Passing a reused
// dst keeps the query path allocation-free at steady state.
func (e *SeriesEngine) AppendRange(dst []Point, from, to time.Duration) []Point {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := len(dst)
	for _, s := range e.closed {
		dst = s.AppendRange(dst, from, to)
	}
	for _, p := range e.head {
		if p.T >= from && p.T < to {
			dst = append(dst, p)
		}
	}
	// Closed segments are internally sorted but may overlap each other
	// (and the head) when arrivals were out of order; only then does a
	// stable sort have to restore the global contract.
	tail := dst[start:]
	for i := 1; i < len(tail); i++ {
		if tail[i].T < tail[i-1].T {
			sort.SliceStable(tail, func(i, j int) bool { return tail[i].T < tail[j].T })
			break
		}
	}
	return dst
}

// EngineStats is a point-in-time digest of an engine.
type EngineStats struct {
	Points      uint64 // ever appended
	Retained    int    // currently held
	OutOfOrder  uint64
	OpenPoints  int // in the unencoded head
	ClosedSegs  int
	SegsClosed  uint64 // closes ever performed
	Compactions uint64
	Evicted     uint64
	Bytes       int // encoded bytes across closed segments
}

// Stats returns the engine counters.
func (e *SeriesEngine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineStats{
		Points:      e.total,
		OutOfOrder:  e.ooo,
		OpenPoints:  len(e.head),
		ClosedSegs:  len(e.closed),
		SegsClosed:  e.segsClosed,
		Compactions: e.compactions,
		Evicted:     e.evicted,
	}
	st.Retained = len(e.head)
	for _, s := range e.closed {
		st.Retained += s.Count()
		st.Bytes += s.SizeBytes()
	}
	return st
}

// FNV-1a parameters shared by the store's convergence digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// digestU64 folds v into an FNV-1a hash, low byte first.
func digestU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// digestString folds s (length-prefixed) into an FNV-1a hash.
func digestString(h uint64, s string) uint64 {
	h = digestU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// digestPoints folds a point stream, order-sensitively, into an FNV-1a
// hash.
func digestPoints(h uint64, pts []Point) uint64 {
	h = digestU64(h, uint64(len(pts)))
	for _, p := range pts {
		h = digestU64(h, uint64(p.T))
		h = digestU64(h, math.Float64bits(p.V))
	}
	return h
}

// digest folds the retained point stream into an order-sensitive
// FNV-1a hash — equal digests mean equal retained points. It hashes
// decoded points, not segment bytes, so replicas that closed or
// compacted segments at different times still compare equal when their
// data matches (the comparison the convergence checks rely on).
func (e *SeriesEngine) digest(h uint64) uint64 {
	pts := e.AppendRange(nil, minTime, maxTime) // canonical: timestamp-sorted, arrival-stable
	return digestPoints(h, pts)
}
