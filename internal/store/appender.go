package store

import "sync/atomic"

// batchSize is the Appender flush threshold, in points.
const batchSize = 64

// Appender is the batched ingest front of a Sharded store: points
// accumulate in per-series batches and flush to the owning shard's
// coordinator when a batch fills, so the per-point hot path is a map
// lookup and a slice append. A batch starts empty and grows only as far
// as its series fills it between flushes — a fleet flushing every few
// points does not hold batchSize points per series — and keeps its
// capacity across flushes, so once a series has flushed once its
// appends allocate nothing (CI-gated). One Appender serves one
// producer; it is not safe for concurrent use, but its completion
// counters are atomic so CP acks landing from scheduler callbacks are
// counted safely.
type Appender struct {
	s       *Sharded
	batches map[string]*batch
	order   []string // first-touch order: deterministic Flush sequence
	done    func(err error)

	// Last-series cache: producers overwhelmingly append runs of the
	// same series, so the common case skips the map lookup entirely
	// (string equality on an identical pointer is one comparison).
	lastSeries string
	lastBatch  *batch

	acked  atomic.Uint64
	failed atomic.Uint64
}

type batch struct {
	pts []Point
}

// NewAppender creates an appender feeding s.
func (s *Sharded) NewAppender() *Appender {
	a := &Appender{s: s, batches: make(map[string]*batch)}
	a.done = func(err error) {
		if err != nil {
			a.failed.Add(1)
		} else {
			a.acked.Add(1)
		}
	}
	return a
}

// Append buffers one point for series, flushing the series' batch to
// its shard when full.
func (a *Appender) Append(series string, p Point) {
	b := a.lastBatch
	if b == nil || series != a.lastSeries {
		var ok bool
		b, ok = a.batches[series]
		if !ok {
			b = &batch{}
			a.batches[series] = b
			a.order = append(a.order, series)
		}
		a.lastSeries, a.lastBatch = series, b
	}
	b.pts = append(b.pts, p)
	if len(b.pts) >= batchSize {
		a.flush(series, b)
	}
}

func (a *Appender) flush(series string, b *batch) {
	a.s.Ingest(series, b.pts, a.done)
	b.pts = b.pts[:0] // Ingest does not retain the batch
}

// Flush pushes every non-empty batch, in first-touch series order.
func (a *Appender) Flush() {
	for _, series := range a.order {
		if b := a.batches[series]; len(b.pts) > 0 {
			a.flush(series, b)
		}
	}
}

// Acked returns how many flushed batches completed successfully.
func (a *Appender) Acked() uint64 { return a.acked.Load() }

// Failed returns how many flushed batches failed (CP quorum loss).
func (a *Appender) Failed() uint64 { return a.failed.Load() }
