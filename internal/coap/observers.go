package coap

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// obsShard is one lock-striped slice of a resource's observer table:
// every observer whose address hashes to it, all under mu. An observer
// is a 16-byte record in recs; the records hold no pointer, so the
// garbage collector never scans a table. Register appends a record,
// deregister swap-removes one, and fan-out stamps MIDs by walking recs
// in order.
//
// Addresses live back to back in arena, which is only ever appended to:
// a byte once written is never written again, and compaction copies the
// live addresses into a fresh array once the dead bytes outweigh them.
// So an address handed out as a string view of the arena (obsRec.addr)
// stays valid however long a transport or a CON exchange keeps it.
//
// index is an open-addressed hash of the addresses (addrHash, linear
// probing, power-of-two size, at most three quarters full). A slot
// holds a record's position + 1 in its low 24 bits and the top 8 bits of
// the record's addrHash above them; 0 is empty. A probe passes a slot
// with another hash's bits without reading recs or arena. Deletion
// shifts the rest of the run back, so no tombstones build up. All
// observers of one address share one probe run, and a lookup compares
// the token along it.
type obsShard struct {
	mu    sync.Mutex
	recs  []obsRec
	arena []byte
	dead  int          // arena bytes no record points at
	index []uint32     // hash bits | record position + 1 per slot, 0 = empty
	shift uint8        // 32 - log2(len(index)): home slots take the top bits
	n     atomic.Int64 // len(recs), readable without the lock
}

// obsRec is one observer: where its address sits in the shard's arena,
// the MID of the last notification it was sent, and its token inline.
type obsRec struct {
	off  uint32  // address offset in the arena
	mid  uint16  // last notification's MID, once tl has obsNotified
	alen uint8   // address length, or obsLongAddr
	tl   uint8   // token length (≤ 8; 9 for a longer one), or'ed with obsNotified
	tok  [8]byte // token bytes
}

const (
	// obsNotified marks a record whose mid is the MID of a notification
	// sent to it. An observer that has been sent none matches no RST.
	obsNotified = 0x80
	obsTokLen   = 0x0f
	// obsLongAddr is the alen of an address of 255 bytes or more: its
	// length precedes it in the arena as 4 little-endian bytes.
	obsLongAddr = 0xff
	// obsMinIndex is the size of a shard's first index.
	obsMinIndex = 8
	// obsPosMask is the position part of an index slot; the bits above
	// it are the top bits of the record's addrHash. It also bounds a
	// shard: position + 1 must fit, so a shard holds at most obsPosMask
	// records (about 16.7 M).
	obsPosMask = 1<<24 - 1
	// obsArenaSlack is the dead arena bytes compaction leaves alone
	// however few are live, so one observer that comes and goes does not
	// copy the arena on every departure.
	obsArenaSlack = 256
)

// addrHash is FNV-1a over the address bytes. Its low bits pick the
// shard, its product with the golden ratio the home slot in the shard's
// index.
func addrHash(addr string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint32(addr[i])) * 16777619
	}
	return h
}

// obsKey returns a record holding token and nothing else: the key a
// lookup compares records against.
func obsKey(token []byte) obsRec {
	k := obsRec{tl: uint8(min(len(token), 9))}
	copy(k.tok[:], token)
	return k
}

func (o *obsRec) sameToken(k *obsRec) bool {
	return o.tok == k.tok && (o.tl^k.tl)&obsTokLen == 0
}

func (o *obsRec) token() []byte {
	n := min(o.tl&obsTokLen, 8)
	return o.tok[:n:n]
}

// span returns where the record's bytes start in arena (its length
// prefix, if it has one), where its address starts, and where it ends.
func (o *obsRec) span(arena []byte) (from, at, end int) {
	from, at = int(o.off), int(o.off)
	n := int(o.alen)
	if o.alen == obsLongAddr {
		n = int(binary.LittleEndian.Uint32(arena[from:]))
		at += 4
	}
	return from, at, at + n
}

// addr returns the record's address as a view of arena's bytes.
func (o *obsRec) addr(arena []byte) string {
	_, at, end := o.span(arena)
	if at == end {
		return ""
	}
	return unsafe.String(&arena[at], end-at)
}

func (sh *obsShard) home(h uint32) int { return int((h * 0x9E3779B1) >> sh.shift) }

// obsSlot is the index slot value of record ri, whose addrHash is h.
func obsSlot(h uint32, ri int) uint32 { return h&^obsPosMask | uint32(ri+1) }

// find returns the index slot of the observer (addr, key's token) and
// its record position, or the empty slot that ends addr's probe run and
// -1. h is addrHash(addr).
func (sh *obsShard) find(addr string, h uint32, key *obsRec) (int, int32) {
	if len(sh.index) == 0 {
		return -1, -1
	}
	mask, tag := len(sh.index)-1, h&^obsPosMask
	s := sh.home(h)
	for ; sh.index[s] != 0; s = (s + 1) & mask {
		if v := sh.index[s]; v&^obsPosMask == tag {
			ri := int32(v&obsPosMask) - 1
			if o := &sh.recs[ri]; o.sameToken(key) && o.addr(sh.arena) == addr {
				return s, ri
			}
		}
	}
	return s, -1
}

// probe returns the first slot of h's probe run that holds v: a record's
// obsSlot, or 0 for the empty slot that ends the run.
func (sh *obsShard) probe(h uint32, v uint32) int {
	mask := len(sh.index) - 1
	s := sh.home(h)
	for sh.index[s] != v {
		s = (s + 1) & mask
	}
	return s
}

// insert adds the observer (addr, key's token), not yet notified; slot
// is the empty slot find returned for it.
func (sh *obsShard) insert(addr string, h uint32, key obsRec, slot int) {
	if 4*(len(sh.recs)+1) > 3*len(sh.index) {
		sh.grow()
		slot = sh.probe(h, 0)
	}
	key.off = uint32(len(sh.arena))
	if len(addr) < obsLongAddr {
		key.alen = uint8(len(addr))
	} else {
		key.alen = obsLongAddr
		sh.arena = binary.LittleEndian.AppendUint32(sh.arena, uint32(len(addr)))
	}
	sh.arena = append(sh.arena, addr...)
	sh.recs = append(sh.recs, key)
	sh.index[slot] = obsSlot(h, len(sh.recs)-1)
	sh.n.Store(int64(len(sh.recs)))
}

// grow doubles the index and re-homes every record.
func (sh *obsShard) grow() {
	size := max(obsMinIndex, 2*len(sh.index))
	sh.index = make([]uint32, size)
	sh.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for i := range sh.recs {
		h := addrHash(sh.recs[i].addr(sh.arena))
		sh.index[sh.probe(h, 0)] = obsSlot(h, i)
	}
}

// remove drops record ri, found at index slot. The last record moves
// into its place and its slot is re-pointed.
func (sh *obsShard) remove(slot int, ri int32) {
	from, _, end := sh.recs[ri].span(sh.arena)
	sh.dead += end - from
	sh.unlink(slot)
	last := int32(len(sh.recs) - 1)
	if ri != last {
		h := addrHash(sh.recs[last].addr(sh.arena))
		sh.index[sh.probe(h, obsSlot(h, int(last)))] = obsSlot(h, int(ri))
		sh.recs[ri] = sh.recs[last]
	}
	sh.recs = sh.recs[:last]
	sh.n.Store(int64(last))
	if live := len(sh.arena) - sh.dead; sh.dead > live && sh.dead > obsArenaSlack {
		sh.compact()
	}
}

// unlink empties index slot s, shifting back each later entry of its
// run that may sit there: one whose home is not between s and itself.
func (sh *obsShard) unlink(s int) {
	mask := len(sh.index) - 1
	for j := (s + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		v := sh.index[j]
		if h := sh.home(addrHash(sh.recs[v&obsPosMask-1].addr(sh.arena))); (j-h)&mask >= (j-s)&mask {
			sh.index[s] = v
			s = j
		}
	}
	sh.index[s] = 0
}

// compact copies the live addresses into a fresh arena. The old one is
// left as it is, for the views still handed out of it.
func (sh *obsShard) compact() {
	var a []byte
	if live := len(sh.arena) - sh.dead; live > 0 {
		a = make([]byte, 0, live)
	}
	for i := range sh.recs {
		o := &sh.recs[i]
		from, _, end := o.span(sh.arena)
		o.off = uint32(len(a))
		a = append(a, sh.arena[from:end]...)
	}
	sh.arena, sh.dead = a, 0
}

// dropMID removes every observer at addr whose last notification had
// MID mid, in one walk of addr's probe run. (One shard's MIDs repeat only
// when a fan-out block outruns the 16-bit MID space.) It returns how many
// observers it removed and how many records it compared: those whose
// slot carries addr's hash bits.
func (sh *obsShard) dropMID(addr string, h uint32, mid uint16) (removed, compared int) {
	if len(sh.index) == 0 {
		return 0, 0
	}
	mask, tag := len(sh.index)-1, h&^obsPosMask
	for s := sh.home(h); sh.index[s] != 0; {
		v := sh.index[s]
		if v&^obsPosMask != tag {
			s = (s + 1) & mask
			continue
		}
		ri := int32(v&obsPosMask) - 1
		o := &sh.recs[ri]
		compared++
		if o.tl&obsNotified != 0 && o.mid == mid && o.addr(sh.arena) == addr {
			sh.remove(s, ri) // shifts the rest of the run back: s holds the next entry
			removed++
			continue
		}
		s = (s + 1) & mask
	}
	return removed, compared
}
