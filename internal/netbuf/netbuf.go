// Package netbuf provides the pooled packet buffer that the emulated
// stack threads through radio, MAC, link, 6LoWPAN, security, and RPL.
//
// A Buffer is a window [off, end) over one backing array with reserved
// headroom in front, so each layer prepends its header in place with
// Prepend instead of allocating a fresh slice and copying the payload
// (the skbuff idiom). Buffers are reference counted: Retain/Release
// track ownership across the retransmit queue and the radio flight
// path, and a released pooled buffer returns to its Pool for reuse.
//
// Ownership contract (see README "packet path & buffer contract"):
//
//   - SendBuf-style APIs take ownership of the buffer passed in; the
//     caller must Retain first if it needs the bytes afterwards.
//   - Receive handlers get views ([]byte or *Buffer) that are valid
//     only for the duration of the callback; copy with CloneBytes (or
//     Clone) to retain.
//   - Every Get/Clone/Retain must be balanced by exactly one Release.
//
// Pools are deliberately NOT safe for concurrent use: the simulator
// runs one single-threaded kernel per trial, and a mutex on the hot
// path would be pure overhead. Each radio.Medium owns its own Pool.
//
// Misuse fails fast: any operation on a buffer whose refcount has
// dropped to zero panics, and a Pool with poison mode enabled (the
// default under tests, see SetPoison) scribbles returned buffers so a
// handler that retained a view across pool reuse reads garbage
// deterministically instead of another packet's bytes. Generation
// counters (Generation) let tests assert that a recycled buffer is a
// new logical packet even though the struct pointer is reused.
package netbuf

// DefaultHeadroom is reserved in front of a fresh buffer's payload so
// the full header stack prepends without moving bytes: MAC (3) +
// link proto (1) + 6LoWPAN dispatch (1) + security header (9) + slack.
const DefaultHeadroom = 16

// defaultSize sizes a fresh backing array: headroom plus an MTU-class
// frame. Oversized packets grow the array once; growth is kept across
// pool reuse so a steady-state workload stops allocating.
const defaultSize = DefaultHeadroom + 144

// poisonByte is scribbled over released buffers in poison mode.
const poisonByte = 0xDB

// Stats counts pool traffic, mirroring sim.Kernel.Stats(): Allocs is
// the number of backing arrays ever created, so Gets-Allocs buffers
// were served allocation-free from the freelist.
type Stats struct {
	Gets   uint64 // buffers handed out
	Puts   uint64 // buffers returned
	Allocs uint64 // fresh Buffer structs created (pool misses)
	Grown  uint64 // backing arrays regrown for oversized packets
	Live   int    // currently checked out
	Free   int    // currently on the freelist
}

// Pool recycles Buffers LIFO. The zero value is NOT usable; call
// NewPool. Not safe for concurrent use — one pool per kernel.
type Pool struct {
	free     []*Buffer
	stats    Stats
	poison   bool
	journeys Journeys
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Journeys returns the pool's journey-ID context. There is one pool per
// simulation kernel (owned by its radio.Medium), so the counter is
// kernel-scoped and its draws are deterministic.
func (p *Pool) Journeys() *Journeys { return &p.journeys }

// Journeys allocates deterministic packet journey IDs and tracks the
// "current" journey — the ID of the packet whose receive processing is
// on the stack right now. IDs are a plain counter (not random) so runs
// are byte-identical under the determinism regime; 0 means "no journey".
//
// The receive path brackets handler invocations with SetCurrent, so any
// traffic a layer sends synchronously while processing an inbound packet
// (a forwarded datagram, a CoAP response) continues that packet's
// journey instead of starting an unrelated one. Like the Pool itself,
// Journeys is not safe for concurrent use.
type Journeys struct {
	next uint64
	cur  uint64
}

// New allocates and returns a fresh journey ID (never 0).
func (j *Journeys) New() uint64 {
	j.next++
	return j.next
}

// Current returns the journey ID in whose context the caller runs, or 0
// if none.
func (j *Journeys) Current() uint64 { return j.cur }

// SetCurrent installs id as the current journey and returns the previous
// value so callers can restore it:
//
//	prev := js.SetCurrent(b.Journey())
//	handler(...)
//	js.SetCurrent(prev)
func (j *Journeys) SetCurrent(id uint64) (prev uint64) {
	prev = j.cur
	j.cur = id
	return prev
}

// SetPoison toggles debug poisoning: when on, every buffer returned to
// the pool is scribbled with 0xDB so use-after-release reads fail
// deterministically instead of silently observing the next packet.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Get returns an empty buffer with DefaultHeadroom reserved and
// refcount 1. The caller owns the sole reference.
func (p *Pool) Get() *Buffer {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		b.refs = 1
		b.off, b.end = DefaultHeadroom, DefaultHeadroom
		b.journey = 0
		return b
	}
	p.stats.Allocs++
	return &Buffer{data: make([]byte, defaultSize), off: DefaultHeadroom, end: DefaultHeadroom, refs: 1, pool: p}
}

// put returns a buffer to the freelist. Called by Buffer.Release.
func (p *Pool) put(b *Buffer) {
	p.stats.Puts++
	b.gen++
	if p.poison {
		for i := range b.data {
			b.data[i] = poisonByte
		}
	}
	p.free = append(p.free, b)
}

// Buffer is a refcounted window over a backing array. The zero value
// is not usable; obtain buffers from a Pool or New.
type Buffer struct {
	data     []byte
	off, end int
	refs     int
	gen      uint64
	journey  uint64
	pool     *Pool // nil for unpooled buffers
}

// New returns an unpooled empty buffer with DefaultHeadroom reserved.
// Release on an unpooled buffer just invalidates it.
func New() *Buffer {
	return &Buffer{data: make([]byte, defaultSize), off: DefaultHeadroom, end: DefaultHeadroom, refs: 1}
}

func (b *Buffer) check() {
	if b.refs <= 0 {
		panic("netbuf: use of released buffer")
	}
}

// Len returns the number of payload bytes in the window.
func (b *Buffer) Len() int { b.check(); return b.end - b.off }

// Journey returns the ID of the logical packet this buffer carries, or
// 0 if none was assigned. The ID is sideband metadata — it never goes
// on the air — stamped by 6LoWPAN encoding and preserved across
// Prepend/Clone/retransmit so flight-recorder events emitted
// anywhere along the path correlate to one journey.
func (b *Buffer) Journey() uint64 { b.check(); return b.journey }

// SetJourney stamps the buffer with a journey ID (see Journey).
func (b *Buffer) SetJourney(id uint64) { b.check(); b.journey = id }

// Bytes returns the payload window. The slice is a view into the
// buffer: it is invalidated by Prepend/grow and must not be
// retained past Release.
func (b *Buffer) Bytes() []byte { b.check(); return b.data[b.off:b.end] }

// Prepend grows the window n bytes at the front and returns the new
// front region for the caller to fill (a header, typically). Grows the
// backing array if headroom is exhausted.
func (b *Buffer) Prepend(n int) []byte {
	b.check()
	if n < 0 {
		panic("netbuf: negative Prepend")
	}
	if n > b.off {
		b.growFront(n)
	}
	b.off -= n
	return b.data[b.off : b.off+n]
}

// Append copies p onto the end of the window, growing if needed.
func (b *Buffer) Append(p []byte) {
	copy(b.Extend(len(p)), p)
}

// Extend grows the window n bytes at the tail and returns the new tail
// region for the caller to fill (an AEAD tag, typically).
func (b *Buffer) Extend(n int) []byte {
	b.check()
	if n < 0 {
		panic("netbuf: negative Extend")
	}
	if b.end+n > len(b.data) {
		b.growBack(n)
	}
	b.end += n
	return b.data[b.end-n : b.end]
}

// Reset empties the buffer and restores DefaultHeadroom.
func (b *Buffer) Reset() {
	b.check()
	b.off, b.end = DefaultHeadroom, DefaultHeadroom
}

// growFront reallocates so at least n bytes of headroom exist,
// preserving the window content and its tailroom.
func (b *Buffer) growFront(n int) {
	need := n + DefaultHeadroom
	nd := make([]byte, need+len(b.data)-b.off)
	copy(nd[need:], b.data[b.off:])
	b.end += need - b.off
	b.off = need
	b.data = nd
	if b.pool != nil {
		b.pool.stats.Grown++
	}
}

// growBack reallocates so at least n bytes of tailroom exist.
func (b *Buffer) growBack(n int) {
	c := len(b.data) * 2
	if c < b.end+n {
		c = b.end + n + defaultSize
	}
	nd := make([]byte, c)
	copy(nd, b.data[:b.end])
	b.data = nd
	if b.pool != nil {
		b.pool.stats.Grown++
	}
}

// Retain adds a reference and returns the same buffer. Each Retain
// needs a matching Release.
func (b *Buffer) Retain() *Buffer {
	b.check()
	b.refs++
	return b
}

// Release drops one reference. When the last reference is gone a
// pooled buffer returns to its pool (possibly poisoned); any further
// use panics.
func (b *Buffer) Release() {
	b.check()
	b.refs--
	if b.refs == 0 && b.pool != nil {
		b.pool.put(b)
	}
}

// Clone returns an independent copy of the window bytes in a new
// buffer (from the same pool when the source is pooled), with
// DefaultHeadroom restored. This is the copy-on-fanout primitive: the
// radio medium clones the in-flight buffer once per receiver so no two
// receivers — nor the sender's retained retransmit buffer — alias.
func (b *Buffer) Clone() *Buffer {
	b.check()
	var c *Buffer
	if b.pool != nil {
		c = b.pool.Get()
	} else {
		c = New()
	}
	c.Append(b.Bytes())
	c.journey = b.journey
	return c
}

// CloneBytes returns an independent copy of p (nil in, nil out). It is
// the one blessed defensive-copy idiom for handlers that retain a
// received view past the callback; grep for CloneBytes to find every
// place the stack pays for a copy.
func CloneBytes(p []byte) []byte {
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}
