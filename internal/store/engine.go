// Package store is the data-storage tier of the three-layer architecture
// (Fig. 1): a segment-encoded time-series engine for telemetry and a
// hash-partitioned replicated store over it that runs each shard in CP
// (quorum) or AP (CRDT) mode — the two ends of the CAP trade-off §V-C
// analyzes for always-on industrial systems.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
)

// Point is one telemetry sample.
type Point struct {
	T time.Duration // virtual or wall time since start
	V float64
}

// SeriesEngine is the append-optimized storage engine for one series:
// an open segment (the head) and a list of immutable closed Segments
// behind it, all in the delta-of-delta codec, so a point is held once,
// encoded. The head is the point stream of a segment without its
// leading count: an append is one (stamp, value) varint pair, and the
// head grows with what it holds. When it fills, an in-order head closes
// by taking its count in front — the bytes encoding its points afresh
// would give — and a head holding out-of-order arrivals is decoded,
// sorted and re-encoded; a filled head keeps its capacity, so the next
// segment's appends do not allocate. Compaction merges closed segments
// into larger ones so long-retention series stay O(log) segments
// instead of O(points/segSize).
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

	head    []byte      // open segment, arrival order: appendPoints' stream without the count
	hw      pointWriter // the head's codec state: hw.n is its point count, hw.last() the latest arrival
	headOOO bool        // head holds at least one out-of-order point
	lastT   time.Duration
	closed  []*Segment

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

// work is the scratch of an operation that decodes and re-encodes: an
// out-of-order close, a compaction, a digest that must sort. Engines
// take one from workPool for the length of the operation instead of
// each keeping buffers between closes.
type work struct {
	pts []Point
	enc []byte
}

var workPool = sync.Pool{New: func() any { return new(work) }}

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
// the ingest hot path: each point is encoded onto the open head. It
// does not retain pts.
func (e *SeriesEngine) AppendBatch(pts []Point) {
	e.mu.Lock()
	for _, p := range pts {
		e.append(p)
	}
	e.mu.Unlock()
}

func (e *SeriesEngine) append(p Point) {
	if e.total > 0 && p.T < e.lastT {
		e.ooo++
		e.headOOO = true
	} else {
		e.lastT = p.T
	}
	e.head = e.hw.append(reserve(e.head, 2*binary.MaxVarintLen64), p)
	e.total++
	if e.hw.n >= e.segSize {
		e.closeHead()
	}
}

// headReader reads the open head.
func (e *SeriesEngine) headReader() pointReader {
	return pointReader{data: e.head, left: uint64(e.hw.n), first: true}
}

// closeHead closes the open head into a segment: an in-order head is
// already the segment's stream and only takes its count in front; one
// holding late points is decoded, sorted and re-encoded.
func (e *SeriesEngine) closeHead() {
	if e.hw.n == 0 {
		return
	}
	var seg *Segment
	if e.headOOO {
		w := workPool.Get().(*work)
		r := e.headReader()
		w.pts = r.appendAll(w.pts[:0])
		sortByTime(w.pts)
		seg, w.enc = newSegment(w.pts, w.enc)
		workPool.Put(w)
	} else {
		seg = sealStream(e.head, &e.hw)
	}
	e.closed = append(e.closed, seg)
	e.head = e.head[:0]
	e.hw.n = 0
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
	e.mergeFrom(n - run)
}

// mergeFrom merges closed[start:] into one segment, releasing the slots
// the merged segments leave behind.
func (e *SeriesEngine) mergeFrom(start int) {
	w := workPool.Get().(*work)
	var seg *Segment
	seg, w.pts, w.enc = mergeSegments(e.closed[start:], w.pts, w.enc)
	workPool.Put(w)
	clear(e.closed[start+1:])
	e.closed = append(e.closed[:start], seg)
	e.compactions++
}

// Compact force-merges every closed segment into one — the maintenance
// entry point the sharded store schedules in the background.
func (e *SeriesEngine) Compact() {
	e.mu.Lock()
	if len(e.closed) > 1 {
		e.mergeFrom(0)
	}
	e.mu.Unlock()
}

// enforceRetention drops the oldest closed segments past the bound. It
// shifts the survivors down and clears the freed slot: re-slicing past
// the evicted segment would keep it reachable through the backing array.
func (e *SeriesEngine) enforceRetention() {
	if e.maxSegs <= 0 {
		return
	}
	for len(e.closed) > e.maxSegs {
		e.evicted += uint64(e.closed[0].Count())
		n := copy(e.closed, e.closed[1:])
		e.closed[n] = nil
		e.closed = e.closed[:n]
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
	return e.retainedLocked()
}

func (e *SeriesEngine) retainedLocked() int {
	n := e.hw.n
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
	return e.hw.last(), e.total > e.evicted
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
	return e.appendRangeLocked(dst, from, to)
}

func (e *SeriesEngine) appendRangeLocked(dst []Point, from, to time.Duration) []Point {
	start := len(dst)
	for _, s := range e.closed {
		dst = s.AppendRange(dst, from, to)
	}
	r := e.headReader()
	for r.left > 0 {
		p := r.mustNext()
		if p.T >= to && !e.headOOO {
			break // an in-order head holds nothing later in range
		}
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
			sortByTime(tail)
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
	OpenPoints  int // in the open head
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
		OpenPoints:  e.hw.n,
		ClosedSegs:  len(e.closed),
		SegsClosed:  e.segsClosed,
		Compactions: e.compactions,
		Evicted:     e.evicted,
		Retained:    e.retainedLocked(),
	}
	for _, s := range e.closed {
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

// digestPoint folds one point into an FNV-1a hash.
func digestPoint(h uint64, p Point) uint64 {
	return digestU64(digestU64(h, uint64(p.T)), math.Float64bits(p.V))
}

// digestPoints folds a point stream, order-sensitively, into an FNV-1a
// hash.
func digestPoints(h uint64, pts []Point) uint64 {
	h = digestU64(h, uint64(len(pts)))
	for _, p := range pts {
		h = digestPoint(h, p)
	}
	return h
}

// digest folds the retained point stream into an order-sensitive
// FNV-1a hash — equal digests mean equal retained points, the hash
// digestPoints gives AppendRange(nil, minTime, maxTime). It hashes
// decoded points, not segment bytes, so replicas that closed or
// compacted segments at different times still compare equal when their
// data matches (the comparison the convergence checks rely on). The
// canonical stream is built in w.pts, which the caller reuses across
// series.
func (e *SeriesEngine) digest(h uint64, w *work) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	w.pts = e.appendRangeLocked(w.pts[:0], minTime, maxTime) // canonical: timestamp-sorted, arrival-stable
	return digestPoints(h, w.pts)
}
