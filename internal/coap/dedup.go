package coap

import (
	"math"
	"time"
	"unsafe"
)

// dedupLog is a Conn's CON duplicate-detection cache (RFC 7252 §4.5):
// every answered CON in arrival order, so a retransmitted request is
// answered with the same bytes without running its handler again.
//
// The log is a FIFO of chunks. A chunk holds fixed-size records and one
// byte buffer in which each record's peer address and encoded answer sit
// back to back, so a cached CON is one record plus its bytes and no heap
// object of its own. Records are numbered by a sequence number that
// wraps modulo 2^32. The index maps a 32-bit hash of (address, MID) to
// the newest record with that hash; older records with the same hash are
// chained behind it, and a lookup compares the full address and MID.
// Expiry advances the head in arrival order, releases whole chunks, and
// drops the index once the log is empty.
//
// While the log holds more than dedupMaxHeld bytes over more than one
// chunk, expiry releases head records whatever their age, so it holds at
// most the bound plus the chunk it is filling. A CON past the bound is
// still answered and cached, and the oldest cached answers make room for
// it; each pair dropped that way before its lifetime counts in evicted.
// A retransmission of an evicted CON runs its handler again: RFC 7252
// §4.5 allows that for idempotent requests, as the gateway's GETs and
// iiotgw's setpoint PUT are.
//
// A pair answered again while an older record of it is held (two copies
// of one CON that both missed, handled concurrently) shadows the older
// record: a lookup finds the newest. Expiry then decides exactly as a
// map of pairs to their newest answer, with a FIFO of (pair, arrival)
// beside it, would: the head record stands for its pair only while the
// pair's newest record is not dead and arrived at the same time; it then
// stops expiry if it is young enough, or else kills the newest record
// (a lookup misses it) and goes. Any other head record goes regardless
// of its age.
type dedupLog struct {
	chunks  []*dedupChunk     // held chunks, oldest first
	first   uint32            // sequence number of the oldest held record
	next    uint32            // sequence number of the next record
	index   map[uint32]uint32 // dedupHash -> newest record with that hash
	live    int               // (address, MID) pairs with a record
	held    int               // bytes of the held chunks' records and buffers
	evicted int64             // pairs dropped by the bound before their lifetime
}

// dedupChunk is a run of consecutive records and the bytes they own.
// Both capacities are fixed when the chunk is made, so a slice handed
// out of buf stays valid and is never written again.
type dedupChunk struct {
	base uint32     // sequence number of recs[0]
	recs []dedupRec // records; cap is the chunk's size
	buf  []byte     // each record's address, then its answer
}

// dedupRec is one answered CON.
type dedupRec struct {
	at   time.Duration // arrival
	off  uint32        // offset of the address in the chunk's buf
	link uint32        // next older record with the same hash; its own number ends the chain
	rlen uint32        // answer length, or'ed with dedupShadowed and dedupDead
	mid  uint16
	alen uint16 // address length
}

const (
	// dedupShadowed marks a record whose pair has a newer record.
	dedupShadowed = 1 << 31
	// dedupDead marks a pair's newest record once expiry has dropped the
	// pair through an older record that arrived at the same time.
	dedupDead    = 1 << 30
	dedupLenMask = dedupDead - 1
	// dedupFirstRecs and dedupFirstBytes size the first chunk (records,
	// buffer bytes per record), so a Conn that answers few CONs holds
	// little. A later chunk takes as many records as the log holds, at
	// least dedupFirstRecs and at most dedupMaxRecs, so what the chunks
	// hold beyond the live records stays about one chunk; it sizes its
	// buffer by its predecessor's bytes per record, and takes no more
	// records than fit dedupChunkBytes at that rate (at least one), so a
	// chunk of long answers stays small too.
	dedupFirstRecs  = 4
	dedupFirstBytes = 64
	dedupMaxRecs    = 1024
	dedupChunkBytes = 64 << 10
	// dedupMaxHeld bounds held: 1 MiB is about 13 700 answers, 3.3 s of
	// history at 4 200 CONs/s, still longer than a CON's first
	// retransmission timeout (2-3 s).
	dedupMaxHeld = 1 << 20
)

// dedupHash is FNV-1a over the address bytes and the MID.
func dedupHash[A string | []byte](addr A, mid uint16) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint32(addr[i])) * 16777619
	}
	h = (h ^ uint32(mid>>8)) * 16777619
	return (h ^ uint32(mid&0xFF)) * 16777619
}

// holds reports whether record s is in the log.
func (l *dedupLog) holds(s uint32) bool { return s-l.first < l.next-l.first }

// rec returns held record s and its chunk.
func (l *dedupLog) rec(s uint32) (*dedupChunk, *dedupRec) {
	// The last chunk whose base is at or below s, comparing offsets from
	// the oldest chunk's base so the search holds across the wrap.
	base := l.chunks[0].base
	lo, hi := 0, len(l.chunks)-1
	for lo < hi {
		m := (lo + hi + 1) / 2
		if l.chunks[m].base-base <= s-base {
			lo = m
		} else {
			hi = m - 1
		}
	}
	c := l.chunks[lo]
	return c, &c.recs[s-c.base]
}

// dedupNewest returns the newest held record of (addr, mid), whose hash
// is h.
func dedupNewest[A string | []byte](l *dedupLog, addr A, mid uint16, h uint32) (*dedupChunk, *dedupRec) {
	s, ok := l.index[h]
	for ok && l.holds(s) {
		c, r := l.rec(s)
		if r.mid == mid && string(c.buf[r.off:r.off+uint32(r.alen)]) == string(addr) {
			return c, r
		}
		ok = r.link != s
		s = r.link
	}
	return nil, nil
}

// lookup returns the cached answer to (addr, mid), or nil.
func (l *dedupLog) lookup(addr string, mid uint16) []byte {
	c, r := dedupNewest(l, addr, mid, dedupHash(addr, mid))
	if r == nil || r.rlen&dedupDead != 0 {
		return nil
	}
	a := r.off + uint32(r.alen)
	e := a + r.rlen&dedupLenMask
	return c.buf[a:e:e]
}

// add encodes m as the answer to (addr, mid), arrived at at, at the
// tail of the log and returns the encoded bytes. An address or answer
// too long for a record (no datagram is) is encoded but not cached.
func (l *dedupLog) add(addr string, mid uint16, at time.Duration, m *Message) ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	size := m.marshalSize()
	if len(addr) > math.MaxUint16 || size > dedupLenMask {
		return m.appendMarshal(make([]byte, 0, size)), nil
	}
	need := len(addr) + size
	var c *dedupChunk
	if n := len(l.chunks); n > 0 {
		c = l.chunks[n-1]
	}
	if c == nil || len(c.recs) == cap(c.recs) || cap(c.buf)-len(c.buf) < need {
		c = l.grow(need)
	}
	off := len(c.buf)
	c.buf = m.appendMarshal(append(c.buf, addr...))

	h := dedupHash(addr, mid)
	_, old := dedupNewest(l, addr, mid, h)
	if old == nil || old.rlen&dedupDead != 0 {
		l.live++
	}
	if old != nil {
		old.rlen |= dedupShadowed
	}
	s := l.next
	link := s
	if prev, ok := l.index[h]; ok && l.holds(prev) {
		link = prev
	}
	if l.index == nil {
		l.index = make(map[uint32]uint32)
	}
	l.index[h] = s
	a, e := off+len(addr), len(c.buf)
	c.recs = append(c.recs, dedupRec{at: at, off: uint32(off), link: link, rlen: uint32(e - a), mid: mid, alen: uint16(len(addr))})
	l.next++
	return c.buf[a:e:e], nil
}

// grow appends a chunk with room for at least need bytes.
func (l *dedupLog) grow(need int) *dedupChunk {
	perRec := dedupFirstBytes
	if n := len(l.chunks); n > 0 {
		last := l.chunks[n-1]
		perRec = (len(last.buf) + len(last.recs) - 1) / len(last.recs)
	}
	recs := min(max(int(l.next-l.first), dedupFirstRecs), dedupMaxRecs, max(dedupChunkBytes/perRec, 1))
	c := &dedupChunk{base: l.next, recs: make([]dedupRec, 0, recs), buf: make([]byte, 0, max(recs*perRec, need))}
	l.chunks = append(l.chunks, c)
	l.held += c.size()
	return c
}

func (c *dedupChunk) size() int { return cap(c.recs)*int(unsafe.Sizeof(dedupRec{})) + cap(c.buf) }

// expire releases records from the head while they are stale, older
// than lifetime at now, or over the bound with a later chunk to keep
// (see dedupLog).
func (l *dedupLog) expire(now, lifetime time.Duration) {
	for l.first != l.next {
		c := l.chunks[0]
		r := &c.recs[l.first-c.base]
		addr := c.buf[r.off : r.off+uint32(r.alen)]
		n := r
		if r.rlen&dedupShadowed != 0 {
			_, n = dedupNewest(l, addr, r.mid, dedupHash(addr, r.mid))
		}
		if n.rlen&dedupDead == 0 && n.at == r.at {
			if now-r.at <= lifetime {
				if l.held <= dedupMaxHeld || len(l.chunks) == 1 {
					break
				}
				l.evicted++
			}
			n.rlen |= dedupDead
			l.live--
		}
		if h := dedupHash(addr, r.mid); l.index[h] == l.first {
			delete(l.index, h)
		}
		l.first++
		if l.first-c.base == uint32(len(c.recs)) && len(l.chunks) > 1 {
			l.held -= c.size()
			l.chunks[0] = nil
			l.chunks = l.chunks[1:]
		}
	}
	if l.first == l.next && l.chunks != nil {
		*l = dedupLog{first: l.first, next: l.next, evicted: l.evicted}
	}
}
