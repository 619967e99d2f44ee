package sim

import (
	"math"
	"math/bits"
)

// The kernel's event queue is a monotone radix queue (a radix heap:
// Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM 1990). It relies on one
// property of the kernel: At clamps every time to now, so no event is
// ever queued before the last one popped. Times are read as 4-bit
// digits. Relative to a base last that no queued time precedes, an
// event at t lives in the bucket named by the highest digit in which t
// differs from last (its level) and by t's value of that digit; bucket
// 0 holds the events at last itself. Every event of a bucket is earlier
// than every event of a later one. A pop takes bucket 0's front; when
// bucket 0 is empty, the first non-empty bucket's earliest time becomes
// the base and that bucket's events are filed again, each into a lower
// level. On mesh-probe set-up an event is filed 1.9 times in its life,
// its push included; with 1-bit digits (bucket Len64(t ^ last), as in
// the paper) 2.8 times.
//
// Every bucket keeps its events in scheduling order, with no sequence
// number and no scan: a schedule appends an event later than all the
// others, and a bucket is only ever filed out into buckets that are
// empty, in its own order. So bucket 0 — all at one instant — pops in
// scheduling order, and the firing order is (at, seq)'s (DESIGN §5).
//
// Buckets are lists of fixed-size chunks drawn from one kernel-wide
// pool, so the queue holds about as many chunks as it has queued events
// plus one per bucket it has used, not the largest run each bucket ever
// held, and reuses them without allocating once warm. A bucket keeps
// its first chunk when it empties: most buckets hold one to a few
// events at a time, and taking a chunk from the pool on every refill
// cost mesh-probe set-up about 4 %. A cancel leaves a tombstone (a slot
// with no event) that the queue drops when it reaches it; when
// tombstones outnumber live events the queue compacts.

// slot is one queue entry: the event's time inline beside the event, so
// filing reads no event struct. e is nil once the event is canceled.
type slot struct {
	at Time
	e  *event
}

// A chunk holds chunkSlots slots; with its next link and id it is
// 496 B, so a bucket that holds a few events keeps little idle. A queue
// position is id<<chunkShift | index.
const (
	chunkShift = 5
	chunkSlots = 30
)

type chunk struct {
	s    [chunkSlots]slot
	next *chunk
	id   int
}

// bucket is a list of chunks; its slots run from s[lo] of head to the
// last filled slot of tail, which has room slots left after it (0 in a
// bucket that never held a chunk, so filing into it takes one; an
// emptied bucket keeps its head with all its room). Only bucket 0 is
// read from the front, so lo is 0 in every other bucket. min is the
// earliest time filed in the bucket; it is stale once that event is
// canceled, until a scan finds the next.
type bucket struct {
	head, tail *chunk
	lo, room   int
	min        Time
	stale      bool
}

// hi is the end of the bucket's slots in chunk c.
func (b *bucket) hi(c *chunk) int {
	if c == b.tail {
		return chunkSlots - b.room
	}
	return chunkSlots
}

// Bucket 1 + level<<radixBits + digit holds the times whose highest
// radixBits-bit digit that differs from last's is at level, with that
// digit's value.
const (
	radixBits = 4
	levels    = (63 + radixBits - 1) / radixBits
	buckets   = 1 + levels<<radixBits
	maskWords = (buckets + 63) / 64
)

// bucketOf returns the bucket at belongs in under the current base.
func (q *eventQueue) bucketOf(at Time) int {
	x := uint64(at ^ q.last)
	if x == 0 {
		return 0
	}
	l := (bits.Len64(x) - 1) / radixBits
	return 1 + l<<radixBits + int(uint64(at)>>(l*radixBits))&(1<<radixBits-1)
}

// compactFloor is how many tombstones the queue tolerates before it
// compacts, whatever the number of live events.
const compactFloor = 256

type eventQueue struct {
	last Time              // no queued time precedes it, and it never passes now
	live int               // queued events that will fire
	dead int               // tombstones still filed
	mask [maskWords]uint64 // bit b set while bucket b holds slots

	// next is the earliest queued time while nextOK holds: a peek or a
	// pop that finds nothing due sets it, a push keeps it the least, and
	// a pop, or the cancel of an event at that time, clears it. A shard
	// group peeks every stripe at every barrier, most of them with
	// nothing due in the window.
	next   Time
	nextOK bool

	b [buckets]bucket

	chunks []*chunk // every chunk the queue owns, by id
	spare  []*chunk
}

// file appends s to the bucket its time names under the current base.
func (q *eventQueue) file(s slot) {
	i := q.bucketOf(s.at)
	b := &q.b[i]
	if b.room == 0 {
		q.grow(b, s.at)
	}
	j := chunkSlots - b.room
	b.tail.s[j] = s
	s.e.index = b.tail.id<<chunkShift | j
	b.room--
	b.min = min(b.min, s.at)
	q.mask[i/64] |= 1 << (i % 64)
}

// grow links a chunk from the spare pool to b's tail.
func (q *eventQueue) grow(b *bucket, at Time) {
	if len(q.spare) == 0 {
		q.more()
	}
	c := q.spare[len(q.spare)-1]
	q.spare = q.spare[:len(q.spare)-1]
	c.next = nil
	if b.tail == nil {
		b.head, b.lo, b.min = c, 0, at
	} else {
		b.tail.next = c
	}
	b.tail, b.room = c, chunkSlots
}

// more adds a quarter as many chunks as the queue owns (at least four)
// to the spare pool in one allocation, so a load that peaks a little
// higher than before finds room without allocating again.
func (q *eventQueue) more() {
	cs := make([]chunk, max(4, len(q.chunks)/4))
	for i := range cs {
		cs[i].id = len(q.chunks)
		q.chunks = append(q.chunks, &cs[i])
		q.spare = append(q.spare, &cs[i])
	}
}

func (q *eventQueue) push(at Time, e *event) {
	q.file(slot{at: at, e: e})
	q.live++
	if at < q.next {
		q.next = at
	}
}

// cancel tombstones the slot at position i.
func (q *eventQueue) cancel(i int) {
	s := &q.chunks[i>>chunkShift].s[i&(1<<chunkShift-1)]
	if b := &q.b[q.bucketOf(s.at)]; s.at == b.min {
		b.stale = true
	}
	if s.at == q.next {
		q.nextOK = false
	}
	s.e = nil
	q.live--
	q.dead++
	if q.dead > q.live && q.dead >= compactFloor {
		q.compact()
	}
}

// front returns bucket 0's first live slot, dropping the tombstones
// before it, or nil when bucket 0 holds no live event.
func (q *eventQueue) front() *slot {
	b := &q.b[0]
	for b.head != nil {
		for end := b.hi(b.head); b.lo < end; b.lo++ {
			if s := &b.head.s[b.lo]; s.e != nil {
				return s
			}
			q.dead--
		}
		if b.head == b.tail {
			b.lo, b.room = 0, chunkSlots // keep the chunk: bucket 0 fills again soon
			return nil
		}
		c := b.head
		b.head, b.lo = c.next, 0
		q.spare = append(q.spare, c)
	}
	return nil
}

// least scans bucket i for its earliest live time, and reports whether
// it holds a live event.
func (q *eventQueue) least(i int) bool {
	b := &q.b[i]
	ok := false
	for c := b.head; c != nil; c = c.next {
		for j := range c.s[:b.hi(c)] {
			if s := &c.s[j]; s.e != nil && (!ok || s.at < b.min) {
				b.min, ok = s.at, true
			}
		}
	}
	b.stale = false
	return ok
}

// refile empties bucket i and files its live slots again, in order,
// under the current base; its tombstones are dropped. After a new base
// from bucket i they land in lower buckets, in a compaction back in i.
// The bucket keeps its first chunk, so the next event filed there takes
// none: a compaction writes it again behind the read, and the chunks
// after it go back to the pool once read.
func (q *eventQueue) refile(i int) {
	b := q.b[i]
	next := b.head.next
	b.head.next = nil
	q.b[i] = bucket{head: b.head, tail: b.head, room: chunkSlots, min: math.MaxInt64}
	q.mask[i/64] &^= 1 << (i % 64)
	for c, lo := b.head, b.lo; c != nil; c, lo = next, 0 {
		if c != b.head {
			next = c.next
		}
		for _, s := range c.s[lo:b.hi(c)] {
			if s.e == nil {
				q.dead--
				continue
			}
			q.file(s)
		}
		if c != b.head {
			q.spare = append(q.spare, c)
		}
	}
}

// lowest returns the first non-empty bucket above 0, or 0 if none.
func (q *eventQueue) lowest() int {
	for w, m := range q.mask {
		if w == 0 {
			m &^= 1
		}
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return 0
}

// earliest returns the first non-empty bucket above 0 and its earliest
// live time, for when bucket 0 holds no live event; the pop that
// follows makes that time the base without scanning the bucket again.
func (q *eventQueue) earliest() (int, Time, bool) {
	for q.live > 0 {
		i := q.lowest()
		if b := &q.b[i]; !b.stale || q.least(i) {
			return i, b.min, true
		}
		q.refile(i) // tombstones only
	}
	return 0, 0, false
}

// peek returns the earliest queued time.
func (q *eventQueue) peek() (Time, bool) {
	if !q.nextOK {
		if q.front() != nil {
			q.next, q.nextOK = q.last, true
		} else {
			_, q.next, q.nextOK = q.earliest()
		}
	}
	return q.next, q.nextOK
}

// pop takes the earliest event out of the queue if it is due at or
// before limit.
func (q *eventQueue) pop(limit Time) (slot, bool) {
	if at, ok := q.peek(); !ok || at > limit {
		return slot{}, false
	}
	q.nextOK = false
	s := q.front()
	if s == nil {
		i, at, _ := q.earliest()
		q.last = at
		if b := &q.b[i]; b.head == b.tail && b.room == chunkSlots-1 {
			// A lone event (half the refills on mesh-probe): pop it
			// without filing it into bucket 0 first.
			out := b.head.s[0]
			*b = bucket{head: b.head, tail: b.head, room: chunkSlots, min: math.MaxInt64}
			q.mask[i/64] &^= 1 << (i % 64)
			q.live--
			return out, true
		}
		q.refile(i)
		s = q.front()
	}
	out := *s
	q.b[0].lo++
	q.live--
	return out, true
}

// compact drops every tombstone, keeping each bucket's order.
func (q *eventQueue) compact() {
	for w := range q.mask {
		for m := q.mask[w]; m != 0; m &= m - 1 {
			q.refile(w*64 + bits.TrailingZeros64(m))
		}
	}
}
