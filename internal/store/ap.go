package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"iiotds/internal/netbuf"
)

// apState is the AP-mode CRDT state and the production gossip.State.
//
// Every local mutation — a batch appended to a series, a register
// written — is one op in its origin's op order, and replicas only ever
// hold a prefix of each origin's order. That makes a version vector
// (origin -> ops held) a complete summary of a replica, and "the ops
// after yours" a complete delta, so an anti-entropy round costs O(what
// changed) instead of O(everything stored).
//
// The prefix invariant rests on one writer per origin: only replica X
// appends to X's order. Merge keeps it for relayed ops by applying op i
// of an origin only when exactly i ops of that origin are already held.
//
// KV keys are LWW registers; each series is a SeriesEngine holding the
// merged view, and beside it how many of its points each origin
// contributed. An origin's ops are held as their delta wire bytes back
// to back, so a delta copies them instead of encoding them again, and
// only as long as some peer may still need them: every summary a peer
// sends records how many ops of each origin it holds, and the prefix
// every peer has reported holding is dropped. A replica that lost its
// state, or one that joins after a drop, therefore cannot be rebuilt
// from ops: its peers hold the data but no longer the ops, so it needs
// a state transfer (which does not exist yet), and an origin that
// restarts empty cannot recover its own order from its peers. Summaries
// are trusted: a peer that over-claims is never sent what it lacks.
// Applying an op is idempotent and ops of different origins commute, so
// merge order does not matter.
type apState struct {
	mu      sync.Mutex
	regs    map[string]*lwwRegister
	series  map[string]*apSeries
	origins []*apOrigin // sorted by id
	segSize int
	peers   func() []string // the replicas whose reports gate a drop; nil: no peers, nothing dropped
	onMerge func(series string, added int)
	onStale func() // a summary asked for ops already dropped
}

// apSeries is one series: the merged engine, and the points each origin
// that ever appended to it contributed.
type apSeries struct {
	name string
	eng  *SeriesEngine
	held []apHeld // sorted by origin id
}

// apHeld counts the points of a series that came from origin o.
type apHeld struct {
	o *apOrigin
	n int
}

// apOrigin is one origin's op order, as far as this replica holds it:
// ops before base are dropped, and op base+i is the wire bytes at
// data[offs[i]:] up to the next op — str(key) opSeries points, or
// str(key) opReg for a register write. A register op carries no value
// of its own: what is shipped for it is the register as it stands,
// which is that write or one that beat it.
type apOrigin struct {
	id      string
	base    uint64
	data    []byte
	offs    []uint32
	reports map[string]uint64 // per peer, the most ops of this origin it has reported holding
}

// count returns the ops of o this replica has held: the dropped ones
// and the ones it still holds.
func (o *apOrigin) count() uint64 { return o.base + uint64(len(o.offs)) }

// startOp opens op count() at the end of data, with room for n bytes.
func (o *apOrigin) startOp(n int) {
	if uint64(len(o.data)) > math.MaxUint32 {
		panic(fmt.Sprintf("store: origin %s holds %d B of undropped ops", o.id, len(o.data)))
	}
	o.offs = append(o.offs, uint32(len(o.data)))
	o.data = reserve(o.data, n)
}

// drop frees the ops every one of peers has reported holding, once
// they take at least as many bytes as the ops kept: the bytes held stay
// within twice what some peer still lacks, and each byte is copied at
// most once per drop it survives.
func (o *apOrigin) drop(peers []string) {
	if len(peers) == 0 {
		return
	}
	cut := o.count()
	for _, p := range peers {
		cut = min(cut, o.reports[p])
	}
	if cut <= o.base {
		return
	}
	k := int(cut - o.base)
	end := len(o.data)
	if k < len(o.offs) {
		end = int(o.offs[k])
	}
	if end < len(o.data)-end {
		return
	}
	var data []byte
	var offs []uint32
	if kept := o.data[end:]; len(kept) > 0 {
		data = append(reserve(nil, len(kept)), kept...)
		offs = make([]uint32, len(o.offs)-k)
		for i, off := range o.offs[k:] {
			offs[i] = off - uint32(end)
		}
	}
	o.base, o.data, o.offs = cut, data, offs
}

func newAPState(segSize int, peers func() []string) *apState {
	return &apState{
		regs:    make(map[string]*lwwRegister),
		series:  make(map[string]*apSeries),
		segSize: segSize,
		peers:   peers,
	}
}

// seriesLocked returns (creating if needed) the state of series name;
// a created series retains name.
func (s *apState) seriesLocked(name string) *apSeries {
	ser, ok := s.series[name]
	if !ok {
		ser = &apSeries{name: name, eng: NewSeriesEngine(s.segSize)}
		s.series[name] = ser
	}
	return ser
}

// add counts n more points of the series from origin o.
func (ser *apSeries) add(o *apOrigin, n int) {
	i := 0
	for i < len(ser.held) && ser.held[i].o.id < o.id {
		i++
	}
	if i == len(ser.held) || ser.held[i].o != o {
		ser.held = append(ser.held, apHeld{})
		copy(ser.held[i+1:], ser.held[i:])
		ser.held[i] = apHeld{o: o}
	}
	ser.held[i].n += n
}

// findOrigin returns the index of id in s.origins, or where it belongs.
func (s *apState) findOrigin(id string) (int, bool) {
	i := 0
	for i < len(s.origins) && s.origins[i].id < id {
		i++
	}
	return i, i < len(s.origins) && s.origins[i].id == id
}

// originLocked returns (creating if needed) id's op order.
func (s *apState) originLocked(id string) *apOrigin {
	i, ok := s.findOrigin(id)
	if !ok {
		s.origins = append(s.origins, nil)
		copy(s.origins[i+1:], s.origins[i:])
		s.origins[i] = &apOrigin{id: id}
	}
	return s.origins[i]
}

// appendSeriesLocked applies one series op of origin o. The op is
// encoded here, whether it was appended locally or merged: an origin
// holds the canonical encoding of its points, never a peer's frame
// bytes.
func (s *apState) appendSeriesLocked(o *apOrigin, ser *apSeries, pts []Point) {
	w := workPool.Get().(*work)
	w.enc = append(appendStr(w.enc[:0], ser.name), opSeries)
	w.enc = appendPoints(w.enc, pts)
	o.startOp(len(w.enc))
	o.data = append(o.data, w.enc...)
	workPool.Put(w)
	ser.add(o, len(pts))
	ser.eng.AppendBatch(pts)
}

func (s *apState) appendLocal(origin, series string, pts []Point) {
	s.mu.Lock()
	s.appendSeriesLocked(s.originLocked(origin), s.seriesLocked(series), pts)
	s.mu.Unlock()
}

// regLocked returns (creating if needed) register key.
func (s *apState) regLocked(key string) *lwwRegister {
	reg, ok := s.regs[key]
	if !ok {
		reg = &lwwRegister{}
		s.regs[key] = reg
	}
	return reg
}

// appendRegOp records a write to register key as the next op of o.
func appendRegOp[T ~string | ~[]byte](o *apOrigin, key T) {
	o.startOp(binary.MaxVarintLen64 + len(key) + 1)
	o.data = append(appendStr(o.data, key), opReg)
}

func (s *apState) setLocal(origin, key string, ts int64, val []byte) {
	s.mu.Lock()
	s.regLocked(key).set(ts, origin, val)
	appendRegOp(s.originLocked(origin), key)
	s.mu.Unlock()
}

// The AP mode of a Replica (modeState): every operation is answered from
// the local state and succeeds at once; gossip spreads the writes.

func (s *apState) put(r *Replica, key string, val []byte, done errDone) {
	s.setLocal(r.id, key, int64(r.sched.Now()), val)
	r.finish(done, opResult{}, nil)
}

func (s *apState) get(r *Replica, key string, done valDone) {
	r.finish(done, opResult{val: s.localValue(key)}, nil)
}

func (s *apState) appendPoints(r *Replica, series string, pts []Point, done errDone) {
	s.appendLocal(r.id, series, pts)
	r.finish(done, opResult{}, nil)
}

func (s *apState) rangeSeries(r *Replica, series string, from, to time.Duration, done ptsDone) {
	r.finish(done, opResult{pts: s.localSeriesRange(series, from, to)}, nil)
}

func (s *apState) repair(*Replica) {} // anti-entropy is the repair

func (s *apState) setMergeHook(fn func(series string, added int)) {
	s.mu.Lock()
	s.onMerge = fn
	s.mu.Unlock()
}

func (s *apState) setStaleHook(fn func()) {
	s.mu.Lock()
	s.onStale = fn
	s.mu.Unlock()
}

func (s *apState) localValue(key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg, ok := s.regs[key]; ok {
		return netbuf.CloneBytes(reg.val)
	}
	return nil
}

func (s *apState) localSeriesRange(series string, from, to time.Duration) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ser, ok := s.series[series]; ok {
		return ser.eng.Range(from, to)
	}
	return nil
}

func (s *apState) visitEngines(fn func(name string, eng *SeriesEngine)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ser := range s.series {
		fn(name, ser.eng)
	}
}

// digest folds the series state into h, series in sorted order: per
// series, the points each origin contributed, then the merged points in
// canonical order. With every origin's ops held as a prefix of its
// order, equal counts mean equal contributions, so two replicas'
// digests are equal exactly when they hold the same ops.
func (s *apState) digest(h uint64) uint64 {
	w := workPool.Get().(*work)
	defer workPool.Put(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range sortedKeys(s.series) {
		ser := s.series[name]
		h = digestString(h, name)
		for _, c := range ser.held {
			h = digestString(h, c.o.id)
			h = digestU64(h, uint64(c.n))
		}
		w.pts = ser.eng.appendAll(w.pts[:0])
		slices.SortFunc(w.pts, byStampThenBits) // an engine keeps ties in arrival order, which differs per replica
		h = digestPoints(h, w.pts)
	}
	return h
}

func byStampThenBits(a, b Point) int {
	if c := cmp.Compare(a.T, b.T); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.V), math.Float64bits(b.V))
}

// The anti-entropy wire format, carried inside gossip frames:
//
//	summary := ( str(origin) u64(ops held) )*  -- fixed width: an idle round costs the same at any age
//	delta   := block*
//	block   := str(origin) uvarint(index of first op) uvarint(ops) op*
//	op      := str(key) opSeries points        -- appendPoints stream, >= 1 point
//	         | str(key) opReg zigzag(ts) str(writer) str(value)
//	str     := uvarint(len) bytes
//	u64     := 8 bytes, little-endian
const (
	opSeries = 1
	opReg    = 2
)

func appendStr[T ~string | ~[]byte](dst []byte, s T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// wireReader consumes the varint framing; the first failure sticks.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("store: truncated %s", what)
	}
	r.data = nil
}

func (r *wireReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *wireReader) u64(what string) uint64 {
	if len(r.data) < 8 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

// str returns the next length-prefixed string, aliasing the frame.
func (r *wireReader) str(what string) []byte {
	n := r.uvarint(what)
	if n > uint64(len(r.data)) {
		r.fail(what)
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// Summary implements gossip.State: the version vector.
func (s *apState) Summary(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.origins {
		dst = appendStr(dst, o.id)
		dst = binary.LittleEndian.AppendUint64(dst, o.count())
	}
	return dst
}

// Delta implements gossip.State: for each origin, the ops past the
// count peer's summary reports (all of them for an origin it does not
// list). A summary that parses is recorded as peer's report, when peer
// is one of this replica's peers, and then every op all peers have
// reported holding may be dropped; one that does not parse records
// nothing. A peer that asks for ops already dropped is served from the
// first op still held and counted (onStale): it cannot catch up by ops.
func (s *apState) Delta(dst []byte, peer string, summary []byte) ([]byte, error) {
	var peers []string
	if s.peers != nil {
		peers = s.peers()
	}
	s.mu.Lock()
	held := make([]uint64, len(s.origins)) // what the peer holds of each origin known here
	for r := (wireReader{data: summary}); len(r.data) > 0; {
		id, n := r.str("summary origin"), r.u64("summary count")
		if r.err != nil {
			s.mu.Unlock()
			return dst, r.err
		}
		if i, ok := s.findOrigin(string(id)); ok {
			held[i] = n
		}
	}
	known := slices.Contains(peers, peer)
	stale := false
	for i, o := range s.origins {
		from := held[i]
		if from < o.base {
			from, stale = o.base, true
		}
		if from < o.count() {
			dst = s.appendOpsLocked(dst, o, from)
		}
		if known {
			if o.reports == nil {
				o.reports = make(map[string]uint64, len(peers))
			}
			o.reports[peer] = max(o.reports[peer], held[i])
			o.drop(peers)
		}
	}
	hook := s.onStale
	s.mu.Unlock()
	if stale && hook != nil {
		hook()
	}
	return dst, nil
}

// appendOpsLocked appends the delta block of o's ops from op from on:
// the held wire bytes, with each register op's register as it stands
// after it.
func (s *apState) appendOpsLocked(dst []byte, o *apOrigin, from uint64) []byte {
	offs := o.offs[from-o.base:]
	dst = appendStr(dst, o.id)
	dst = binary.AppendUvarint(dst, from)
	dst = binary.AppendUvarint(dst, uint64(len(offs)))
	copied := int(offs[0])
	for _, off := range offs {
		op := o.data[off:]
		n, k := binary.Uvarint(op)
		if op[k+int(n)] != opReg {
			continue
		}
		end := int(off) + k + int(n) + 1
		dst = append(dst, o.data[copied:end]...)
		copied = end
		reg := s.regs[string(op[k:k+int(n)])]
		dst = binary.AppendUvarint(dst, zigzag(reg.ts))
		dst = appendStr(dst, reg.id)
		dst = appendStr(dst, reg.val)
	}
	return append(dst, o.data[copied:]...)
}

// apWireDelta is a parsed delta: ops[lo:hi] of a block are ops first,
// first+1, ... of its origin, and a series op's points are
// pts[lo:hi]. The byte slices alias the frame.
type apWireDelta struct {
	blocks []apWireBlock
	ops    []apWireOp
	pts    []Point
}

type apWireBlock struct {
	origin []byte
	first  uint64
	lo, hi int
}

type apWireOp struct {
	key    []byte
	kind   byte
	lo, hi int
	ts     int64
	writer []byte
	val    []byte
}

// parseDelta parses a whole delta, bounding every count by the bytes
// that are there to back it.
func parseDelta(delta []byte) (d apWireDelta, err error) {
	r := wireReader{data: delta}
	for len(r.data) > 0 {
		blk := apWireBlock{origin: r.str("delta origin"), first: r.uvarint("delta op index"), lo: len(d.ops)}
		n := r.uvarint("delta op count")
		if r.err != nil {
			return d, r.err
		}
		if n > uint64(len(r.data)) || blk.first+n < blk.first { // every op takes >= 3 bytes
			return d, fmt.Errorf("store: delta op count %d exceeds payload", n)
		}
		for ; n > 0; n-- {
			op := apWireOp{key: r.str("delta key")}
			if r.err != nil {
				return d, r.err
			}
			if len(r.data) == 0 {
				return d, fmt.Errorf("store: truncated delta op")
			}
			op.kind, r.data = r.data[0], r.data[1:]
			switch op.kind {
			case opSeries:
				var used int
				op.lo = len(d.pts)
				if d.pts, used, err = decodePoints(d.pts, r.data); err != nil {
					return d, err
				}
				if op.hi = len(d.pts); op.hi == op.lo {
					return d, fmt.Errorf("store: empty series op")
				}
				r.data = r.data[used:]
			case opReg:
				op.ts = unzigzag(r.uvarint("register stamp"))
				op.writer, op.val = r.str("register writer"), r.str("register value")
				if r.err != nil {
					return d, r.err
				}
			default:
				return d, fmt.Errorf("store: unknown delta op kind %d", op.kind)
			}
			d.ops = append(d.ops, op)
		}
		blk.hi = len(d.ops)
		d.blocks = append(d.blocks, blk)
	}
	return d, nil
}

// Merge implements gossip.State. The whole delta is parsed before any
// of it is applied, so a truncated or corrupt one changes nothing. Op i
// of an origin is applied only on top of exactly i held ops: ops behind
// that are duplicates and are skipped; a block that starts ahead of it
// is a gap and is left for the next round, which asks again from the
// held count.
func (s *apState) Merge(delta []byte) error {
	d, err := parseDelta(delta)
	if err != nil {
		return err
	}
	type note struct {
		series string
		added  int
	}
	var notes []note // per series merged into, for the hook
	s.mu.Lock()
	hook := s.onMerge
	for _, blk := range d.blocks {
		id := string(blk.origin)
		held := uint64(0)
		if i, ok := s.findOrigin(id); ok {
			held = s.origins[i].count()
		}
		if blk.first > held || held-blk.first >= uint64(blk.hi-blk.lo) {
			continue // a gap, or nothing new
		}
		o := s.originLocked(id)
		for _, op := range d.ops[blk.lo+int(held-blk.first) : blk.hi] {
			if op.kind == opReg {
				s.regLocked(string(op.key)).merge(&lwwRegister{val: op.val, ts: op.ts, id: string(op.writer)})
				appendRegOp(o, op.key)
				continue
			}
			ser := s.series[string(op.key)]
			if ser == nil {
				ser = s.seriesLocked(string(op.key))
			}
			s.appendSeriesLocked(o, ser, d.pts[op.lo:op.hi])
			if hook == nil {
				continue
			}
			if n := len(notes); n > 0 && notes[n-1].series == ser.name {
				notes[n-1].added += op.hi - op.lo
			} else {
				notes = append(notes, note{ser.name, op.hi - op.lo})
			}
		}
	}
	s.mu.Unlock()
	for _, n := range notes {
		hook(n.series, n.added)
	}
	return nil
}
