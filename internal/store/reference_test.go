package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The reference store: the series engine and the AP state as they were
// before a reading was held encoded — a head of raw points that is
// sorted and encoded when it closes, and origin logs of raw points that
// Delta encodes on every call. TestEngineReferenceParity and
// TestAPReferenceParity drive them beside the code under test.

type refEngine struct {
	segSize, maxSegs int
	head             []Point
	headOOO          bool
	lastT            time.Duration
	seenAny          bool
	closed           []*Segment
}

func newRefEngine(segSize int) *refEngine {
	if segSize == 0 {
		segSize = DefaultSegmentSize
	}
	return &refEngine{segSize: segSize}
}

func (e *refEngine) appendBatch(pts []Point) {
	for _, p := range pts {
		if e.seenAny && p.T < e.lastT {
			e.headOOO = true
		} else {
			e.lastT = p.T
		}
		e.seenAny = true
		e.head = append(e.head, p)
		if len(e.head) >= e.segSize {
			e.closeHead()
		}
	}
}

// refSegment encodes sorted points into an exact-size segment.
func refSegment(pts []Point) *Segment {
	return &Segment{data: appendPoints(nil, pts), n: len(pts), minT: pts[0].T, maxT: pts[len(pts)-1].T}
}

func refSort(pts []Point) {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
}

func (e *refEngine) closeHead() {
	if len(e.head) == 0 {
		return
	}
	if e.headOOO {
		refSort(e.head)
	}
	e.closed = append(e.closed, refSegment(e.head))
	e.head = e.head[:0]
	e.headOOO = false
	if n := len(e.closed); n >= compactFanIn {
		run := 0
		for i := n - 1; i >= 0 && e.closed[i].Count() < e.segSize*compactFanIn; i-- {
			run++
		}
		if run >= compactFanIn {
			e.closed = append(e.closed[:n-run], refMerge(e.closed[n-run:]))
		}
	}
	for e.maxSegs > 0 && len(e.closed) > e.maxSegs {
		e.closed = e.closed[1:]
	}
}

func refMerge(segs []*Segment) *Segment {
	var pts []Point
	for _, s := range segs {
		pts, _, _ = decodePoints(pts, s.data)
	}
	refSort(pts)
	return refSegment(pts)
}

func (e *refEngine) compact() {
	if len(e.closed) > 1 {
		e.closed = []*Segment{refMerge(e.closed)}
	}
}

func (e *refEngine) appendRange(dst []Point, from, to time.Duration) []Point {
	start := len(dst)
	for _, s := range e.closed {
		dst = s.AppendRange(dst, from, to)
	}
	for _, p := range e.head {
		if p.T >= from && p.T < to {
			dst = append(dst, p)
		}
	}
	tail := dst[start:]
	for i := 1; i < len(tail); i++ {
		if tail[i].T < tail[i-1].T {
			refSort(tail)
			break
		}
	}
	return dst
}

func (e *refEngine) digest(h uint64) uint64 {
	var all []Point
	for _, s := range e.closed {
		all, _, _ = decodePoints(all, s.data)
	}
	all = append(all, e.head...)
	refSort(all)
	return digestPoints(h, all)
}

// sameEngine reports where e and ref differ: closed-segment bytes and
// bounds, the open head's points, Range answers over the given windows
// and the digest.
func sameEngine(e *SeriesEngine, ref *refEngine, windows [][2]time.Duration) error {
	if len(e.closed) != len(ref.closed) {
		return fmt.Errorf("%d closed segments, reference %d", len(e.closed), len(ref.closed))
	}
	for i, s := range e.closed {
		r := ref.closed[i]
		if !bytes.Equal(s.data, r.data) || s.n != r.n || s.minT != r.minT || s.maxT != r.maxT {
			return fmt.Errorf("closed segment %d differs from the reference's", i)
		}
	}
	hr := e.headReader()
	if head := hr.appendAll(nil); !samePoints(head, ref.head) {
		return fmt.Errorf("head %v, reference %v", head, ref.head)
	}
	for _, w := range windows {
		if got, want := e.AppendRange(nil, w[0], w[1]), ref.appendRange(nil, w[0], w[1]); !samePoints(got, want) {
			return fmt.Errorf("Range(%v, %v) = %v, reference %v", w[0], w[1], got, want)
		}
	}
	if got, want := e.digest(fnvOffset, new(work)), ref.digest(fnvOffset); got != want {
		return fmt.Errorf("digest %x, reference %x", got, want)
	}
	return nil
}

// drawPoints draws a batch continuing a series at *tm: a millisecond
// cadence with jitter, one point in a hundred stamped up to five ticks
// late, values drifting like telemetry.
func drawPoints(rng *rand.Rand, tm *time.Duration, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		*tm += time.Duration(1+rng.Intn(3)) * time.Millisecond
		t := *tm
		if rng.Intn(100) == 0 {
			t -= time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		pts[i] = Point{T: t, V: float64(rng.Intn(1<<20)) / 1024}
	}
	return pts
}

func drawWindows(rng *rand.Rand, end time.Duration) [][2]time.Duration {
	w := [][2]time.Duration{{minTime, maxTime}}
	for i := 0; i < 3; i++ {
		from := time.Duration(rng.Int63n(int64(end) + 1))
		w = append(w, [2]time.Duration{from, from + time.Duration(rng.Int63n(int64(end)/4+1))})
	}
	return w
}

// TestEngineReferenceParity: over drawn histories — batches of every
// size, late points, Flush mid-head, compaction, retention — an engine
// holds the bytes, answers the ranges and digests as the reference.
func TestEngineReferenceParity(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segSize := []int{2, 3, 7, 64, 512}[rng.Intn(5)]
		e, ref := NewSeriesEngine(segSize), newRefEngine(segSize)
		if rng.Intn(3) == 0 {
			e.SetRetention(4)
			ref.maxSegs = 4
		}
		var tm time.Duration
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(20); {
			case k == 0:
				e.Flush()
				ref.closeHead()
			case k == 1:
				e.Compact()
				ref.compact()
			case k == 2:
				p := drawPoints(rng, &tm, 1)[0]
				e.Append(p)
				ref.appendBatch([]Point{p})
			default:
				pts := drawPoints(rng, &tm, 1+rng.Intn(12))
				e.AppendBatch(pts)
				ref.appendBatch(pts)
			}
			if err := sameEngine(e, ref, drawWindows(rng, tm)); err != nil {
				t.Fatalf("seed %d, segSize %d, step %d: %v", seed, segSize, step, err)
			}
		}
	}
}

// refAP is the AP state with origin logs of raw points.
type refAP struct {
	regs    map[string]*lwwRegister
	series  map[string]*refAPSeries
	origins []*refOrigin // sorted by id
}

type refAPSeries struct {
	eng  *refEngine
	logs map[string][]Point
}

type refOrigin struct {
	id  string
	ops []refOp
}

// refOp is n points at pts[off:off+n] of the origin's log of series key,
// or (n == 0) a write to register key.
type refOp struct {
	key    string
	off, n int
}

func newRefAP() *refAP {
	return &refAP{regs: make(map[string]*lwwRegister), series: make(map[string]*refAPSeries)}
}

func (s *refAP) origin(id string) *refOrigin {
	i := sort.Search(len(s.origins), func(i int) bool { return s.origins[i].id >= id })
	if i == len(s.origins) || s.origins[i].id != id {
		s.origins = append(s.origins, nil)
		copy(s.origins[i+1:], s.origins[i:])
		s.origins[i] = &refOrigin{id: id}
	}
	return s.origins[i]
}

func (s *refAP) appendSeries(o *refOrigin, key string, pts []Point, segSize int) {
	ser := s.series[key]
	if ser == nil {
		ser = &refAPSeries{eng: newRefEngine(segSize), logs: make(map[string][]Point)}
		s.series[key] = ser
	}
	off := len(ser.logs[o.id])
	ser.logs[o.id] = append(ser.logs[o.id], pts...)
	o.ops = append(o.ops, refOp{key: key, off: off, n: len(pts)})
	ser.eng.appendBatch(pts)
}

func (s *refAP) setReg(o *refOrigin, key string, reg *lwwRegister) {
	if s.regs[key] == nil {
		s.regs[key] = &lwwRegister{}
	}
	s.regs[key].merge(reg)
	o.ops = append(o.ops, refOp{key: key})
}

func (s *refAP) summary() []byte {
	var dst []byte
	for _, o := range s.origins {
		dst = appendStr(dst, o.id)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(o.ops)))
	}
	return dst
}

// delta encodes, op by op, what a peer with summary lacks.
func (s *refAP) delta(summary []byte) []byte {
	held := map[string]uint64{}
	for r := (wireReader{data: summary}); len(r.data) > 0; {
		id, n := r.str("origin"), r.u64("count")
		held[string(id)] = n
	}
	var dst []byte
	for _, o := range s.origins {
		from := held[o.id]
		if from >= uint64(len(o.ops)) {
			continue
		}
		dst = appendStr(dst, o.id)
		dst = binary.AppendUvarint(dst, from)
		dst = binary.AppendUvarint(dst, uint64(len(o.ops))-from)
		for _, op := range o.ops[from:] {
			dst = appendStr(dst, op.key)
			if op.n == 0 {
				reg := s.regs[op.key]
				dst = append(dst, opReg)
				dst = binary.AppendUvarint(dst, zigzag(reg.ts))
				dst = appendStr(dst, reg.id)
				dst = appendStr(dst, reg.val)
				continue
			}
			dst = append(dst, opSeries)
			dst = appendPoints(dst, s.series[op.key].logs[o.id][op.off:op.off+op.n])
		}
	}
	return dst
}

func (s *refAP) merge(delta []byte, segSize int) error {
	d, err := parseDelta(delta)
	if err != nil {
		return err
	}
	for _, blk := range d.blocks {
		o := s.origin(string(blk.origin))
		held := uint64(len(o.ops))
		if blk.first > held || held-blk.first >= uint64(blk.hi-blk.lo) {
			continue
		}
		for _, op := range d.ops[blk.lo+int(held-blk.first) : blk.hi] {
			if op.kind == opReg {
				s.setReg(o, string(op.key), &lwwRegister{val: op.val, ts: op.ts, id: string(op.writer)})
				continue
			}
			s.appendSeries(o, string(op.key), d.pts[op.lo:op.hi], segSize)
		}
	}
	return nil
}

func (s *refAP) digest() uint64 {
	logs := make(map[string]map[string][]Point, len(s.series))
	for name, ser := range s.series {
		logs[name] = ser.logs
	}
	return logsDigest(logs)
}

// nonMinimal encodes v as a uvarint one byte longer than it has to be —
// a continuation bit on the last byte and a zero byte after it, which
// binary.Uvarint reads back as v.
func nonMinimal(dst []byte, v uint64) []byte {
	dst = binary.AppendUvarint(dst, v)
	dst[len(dst)-1] |= 0x80
	return append(dst, 0)
}

// zDelta is the delta a peer sends for the first op of origin "z", one
// series op of pts; padded, every varint of the points is one byte
// longer than it has to be.
func zDelta(key string, pts []Point, padded bool) []byte {
	dst := appendStr(nil, "z")
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, 1)
	dst = append(appendStr(dst, key), opSeries)
	if !padded {
		return appendPoints(dst, pts)
	}
	dst = nonMinimal(dst, uint64(len(pts)))
	var w pointWriter
	for _, p := range pts {
		enc := w.append(nil, p)
		for r := (wireReader{data: enc}); len(r.data) > 0; {
			dst = nonMinimal(dst, r.uvarint("point"))
		}
	}
	return dst
}

// TestAPReferenceParity: three replicas a, b, c, and beside each a
// reference replica that keeps every op, fed the same history — local
// appends from every origin with late points, register writes, Flush
// and compaction mid-head, and a frame from a peer that pads its
// varints. On odd seeds a and c are cut from each other, so everything
// between them is relayed by b; on even seeds every pair exchanges, so
// every replica drops the ops all its peers reported holding while
// history is still being written. Every Delta must be byte-for-byte the
// reference's, and Summary, digest, Range answers and closed segments
// must match after every step; the padded frame is relayed in canonical
// form.
func TestAPReferenceParity(t *testing.T) {
	const segSize = 16
	ids := []string{"a", "b", "c"}
	relay := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}}
	mesh := append([][2]int{{0, 2}, {2, 0}}, relay...)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		links := relay
		if seed%2 == 0 {
			links = mesh
		}
		states := make([]*apState, len(ids))
		refs := make([]*refAP, len(ids))
		for i := range ids {
			var peers []string
			for _, id := range ids {
				if id != ids[i] {
					peers = append(peers, id)
				}
			}
			states[i] = newAPState(segSize, func() []string { return peers })
			refs[i] = newRefAP()
		}
		clocks := map[string]*time.Duration{}
		padded := 60 + rng.Intn(100)
		check := func(step int, what string) {
			t.Helper()
			for i, s := range states {
				ref := refs[i]
				if got, want := s.Summary(nil), ref.summary(); !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): replica %s Summary %x, reference %x", seed, step, what, ids[i], got, want)
				}
				if got, want := s.digest(fnvOffset), ref.digest(); got != want {
					t.Fatalf("seed %d step %d (%s): replica %s digest %x, reference %x", seed, step, what, ids[i], got, want)
				}
				if len(s.series) != len(ref.series) {
					t.Fatalf("seed %d step %d (%s): replica %s holds %d series, reference %d", seed, step, what, ids[i], len(s.series), len(ref.series))
				}
				for name, ser := range s.series {
					if err := sameEngine(ser.eng, ref.series[name].eng, drawWindows(rng, *clocks[name])); err != nil {
						t.Fatalf("seed %d step %d (%s): replica %s series %s: %v", seed, step, what, ids[i], name, err)
					}
				}
			}
		}
		for step := 0; step < 250; step++ {
			var what string
			switch k := rng.Intn(10); {
			case step == padded:
				what = "padded frame"
				key := fmt.Sprintf("s%d", rng.Intn(4))
				if clocks[key] == nil {
					clocks[key] = new(time.Duration)
				}
				pts := drawPoints(rng, clocks[key], 1+rng.Intn(6))
				frame := zDelta(key, pts, true)
				if len(frame) <= len(zDelta(key, pts, false)) {
					t.Fatal("the padded frame is no longer than the canonical one")
				}
				if err := states[1].Merge(frame); err != nil {
					t.Fatal(err)
				}
				if err := refs[1].merge(frame, segSize); err != nil {
					t.Fatal(err)
				}
			case k < 4:
				what = "append"
				i, key := rng.Intn(len(ids)), fmt.Sprintf("s%d", rng.Intn(4))
				if clocks[key] == nil {
					clocks[key] = new(time.Duration)
				}
				pts := drawPoints(rng, clocks[key], 1+rng.Intn(6))
				states[i].appendLocal(ids[i], key, pts)
				refs[i].appendSeries(refs[i].origin(ids[i]), key, pts, segSize)
			case k == 4:
				what = "register"
				i, key := rng.Intn(len(ids)), fmt.Sprintf("k%d", rng.Intn(3))
				ts, val := int64(rng.Intn(50)), []byte{byte(step)}
				states[i].setLocal(ids[i], key, ts, val)
				refs[i].setReg(refs[i].origin(ids[i]), key, &lwwRegister{val: val, ts: ts, id: ids[i]})
			case k == 5:
				what = "flush and compact"
				i := rng.Intn(len(ids))
				for name, ser := range states[i].series {
					ser.eng.Flush()
					refs[i].series[name].eng.closeHead()
					if rng.Intn(2) == 0 {
						ser.eng.Compact()
						refs[i].series[name].eng.compact()
					}
				}
			default:
				what = "exchange"
				l := links[rng.Intn(len(links))]
				from, to := l[0], l[1]
				got, err := states[from].Delta(nil, ids[to], states[to].Summary(nil))
				if err != nil {
					t.Fatal(err)
				}
				if want := refs[from].delta(refs[to].summary()); !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Delta %s->%s\n got  %x\n want %x", seed, step, ids[from], ids[to], got, want)
				}
				if err := states[to].Merge(got); err != nil {
					t.Fatal(err)
				}
				if err := refs[to].merge(got, segSize); err != nil {
					t.Fatal(err)
				}
			}
			check(step, what)
		}
		dropped := uint64(0)
		for _, st := range states {
			for _, o := range st.origins {
				dropped += o.base
			}
		}
		if seed%2 == 0 && dropped == 0 {
			t.Fatalf("seed %d: no replica dropped an op while a full mesh wrote its history", seed)
		}
		// Heal nothing: on odd seeds the relay alone must carry a's ops to
		// c and back.
		for round := 0; round < 4; round++ {
			for _, l := range links {
				d, err := states[l[0]].Delta(nil, ids[l[1]], states[l[1]].Summary(nil))
				if err != nil {
					t.Fatal(err)
				}
				if want := refs[l[0]].delta(refs[l[1]].summary()); !bytes.Equal(d, want) {
					t.Fatalf("seed %d: settling Delta %s->%s differs from the reference", seed, ids[l[0]], ids[l[1]])
				}
				if err := states[l[1]].Merge(d); err != nil {
					t.Fatal(err)
				}
				if err := refs[l[1]].merge(d, segSize); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(-1, "settled")
		if states[0].digest(fnvOffset) != states[2].digest(fnvOffset) {
			t.Fatalf("seed %d: a and c did not converge", seed)
		}
	}
}
