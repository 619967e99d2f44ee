package netbuf

// Buffer operations and pool readings only tests use.

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	s := p.stats
	s.Free = len(p.free)
	s.Live = int(s.Gets) - int(s.Puts)
	return s
}

// FromBytes returns an unpooled buffer whose content is a copy of p,
// with DefaultHeadroom reserved in front. Convenient in tests.
func FromBytes(p []byte) *Buffer {
	b := New()
	b.Append(p)
	return b
}

// Headroom returns how many bytes Prepend can claim without growing.
func (b *Buffer) Headroom() int { b.check(); return b.off }

// Generation returns the buffer's pool-reuse generation. It increments
// every time the buffer is returned to its pool, so a holder of a
// stale reference can detect that the struct now carries a different
// packet.
func (b *Buffer) Generation() uint64 { return b.gen }

// TrimFront shrinks the window n bytes at the front — the receive-side
// inverse of Prepend, used by each layer to strip its header in place.
func (b *Buffer) TrimFront(n int) {
	b.check()
	if n < 0 || n > b.Len() {
		panic("netbuf: TrimFront out of range")
	}
	b.off += n
}

// Truncate shrinks the window to n bytes, dropping the tail.
func (b *Buffer) Truncate(n int) {
	b.check()
	if n < 0 || n > b.Len() {
		panic("netbuf: Truncate out of range")
	}
	b.end = b.off + n
}
