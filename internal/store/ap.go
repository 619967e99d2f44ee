package store

import (
	"encoding/binary"
	"fmt"
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
// appends to X's order. (An origin that restarts empty must recover its
// own ops from its peers before appending again.) Merge keeps it for
// relayed ops by applying op i of an origin only when exactly i ops of
// that origin are already held.
//
// KV keys are LWW registers; time series are per-origin grow-only point
// logs, with a per-series SeriesEngine holding the merged view for range
// queries. A log is its ops' wire encodings back to back, so a delta
// copies an op's bytes instead of encoding it again. Applying an op is
// idempotent and ops of different origins commute, so merge order does
// not matter.
type apState struct {
	mu      sync.Mutex
	regs    map[string]*lwwRegister
	series  map[string]*apSeries
	origins []*apOrigin // sorted by id
	segSize int
	onMerge func(series string, added int)
}

// apSeries is one series: the merged engine and the logs it was merged
// from, one per origin that ever appended, sorted by origin.
type apSeries struct {
	name string
	eng  *SeriesEngine
	logs []apLog
}

// apLog is one origin's points of a series: each op's appendPoints
// stream, count included, in op order — n points in all.
type apLog struct {
	origin string
	data   []byte
	n      int
}

// apOrigin is one origin's op order, as far as this replica holds it.
type apOrigin struct {
	id  string
	ops []apOp
}

// apOp is one op: the point stream starting at data[off] of the
// origin's log of series key, or (off < 0) a write to register key. A
// register op carries no value of its own: what is shipped for it is
// the register as it stands, which is that write or one that beat it.
type apOp struct {
	key string
	off int
}

func newAPState(segSize int) *apState {
	return &apState{
		regs:    make(map[string]*lwwRegister),
		series:  make(map[string]*apSeries),
		segSize: segSize,
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

// log returns (creating if needed) origin's log of the series.
func (ser *apSeries) log(origin string) *apLog {
	i := 0
	for i < len(ser.logs) && ser.logs[i].origin < origin {
		i++
	}
	if i == len(ser.logs) || ser.logs[i].origin != origin {
		ser.logs = append(ser.logs, apLog{})
		copy(ser.logs[i+1:], ser.logs[i:])
		ser.logs[i] = apLog{origin: origin}
	}
	return &ser.logs[i]
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
// encoded here, whether it was appended locally or merged: a log holds
// the canonical encoding of its points, never a peer's frame bytes.
func (s *apState) appendSeriesLocked(o *apOrigin, ser *apSeries, pts []Point) {
	log := ser.log(o.id)
	o.ops = append(o.ops, apOp{key: ser.name, off: len(log.data)})
	w := workPool.Get().(*work)
	w.enc = appendPoints(w.enc[:0], pts)
	log.data = append(reserve(log.data, len(w.enc)), w.enc...)
	workPool.Put(w)
	log.n += len(pts)
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

func (s *apState) setLocal(origin, key string, ts int64, val []byte) {
	s.mu.Lock()
	s.regLocked(key).set(ts, origin, val)
	o := s.originLocked(origin)
	o.ops = append(o.ops, apOp{key: key, off: -1})
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

// digest folds the origin logs — the authoritative state: merged
// engines may order equal timestamps differently per replica — into h,
// series and origins in sorted order.
func (s *apState) digest(h uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range sortedKeys(s.series) {
		h = digestString(h, name)
		for _, log := range s.series[name].logs {
			h = digestString(h, log.origin)
			h = log.digest(h)
		}
	}
	return h
}

// digest folds the log's points into h as digestPoints folds them,
// decoding its op streams one after another.
func (log *apLog) digest(h uint64) uint64 {
	h = digestU64(h, uint64(log.n))
	for off := 0; off < len(log.data); {
		r, err := newPointReader(log.data[off:])
		if err != nil {
			panic(fmt.Sprintf("store: corrupt origin log: %v", err)) // encode/decode are a closed pair
		}
		h = r.fold(h)
		off += r.off
	}
	return h
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
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(o.ops)))
	}
	return dst
}

// Delta implements gossip.State: for each origin, the ops past the
// count the peer's summary reports (all of them for an origin it does
// not list).
func (s *apState) Delta(dst, summary []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := make([]uint64, len(s.origins)) // what the peer holds of each origin known here
	for r := (wireReader{data: summary}); len(r.data) > 0; {
		id, n := r.str("summary origin"), r.u64("summary count")
		if r.err != nil {
			return dst, r.err
		}
		if i, ok := s.findOrigin(string(id)); ok {
			held[i] = n
		}
	}
	for i, o := range s.origins {
		if held[i] >= uint64(len(o.ops)) {
			continue
		}
		ops := o.ops[held[i]:]
		dst = appendStr(dst, o.id)
		dst = binary.AppendUvarint(dst, held[i])
		dst = binary.AppendUvarint(dst, uint64(len(ops)))
		for _, op := range ops {
			dst = appendStr(dst, op.key)
			if op.off < 0 {
				reg := s.regs[op.key]
				dst = append(dst, opReg)
				dst = binary.AppendUvarint(dst, zigzag(reg.ts))
				dst = appendStr(dst, reg.id)
				dst = appendStr(dst, reg.val)
				continue
			}
			dst = append(dst, opSeries)
			stream := s.series[op.key].log(o.id).data[op.off:]
			dst = append(dst, stream[:streamLen(stream)]...)
		}
	}
	return dst, nil
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
			held = uint64(len(s.origins[i].ops))
		}
		if blk.first > held || held-blk.first >= uint64(blk.hi-blk.lo) {
			continue // a gap, or nothing new
		}
		o := s.originLocked(id)
		for _, op := range d.ops[blk.lo+int(held-blk.first) : blk.hi] {
			if op.kind == opReg {
				s.regLocked(string(op.key)).merge(&lwwRegister{val: op.val, ts: op.ts, id: string(op.writer)})
				o.ops = append(o.ops, apOp{key: string(op.key), off: -1})
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
