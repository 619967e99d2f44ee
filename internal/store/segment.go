package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// The segment codec. A Segment is an immutable, closed run of points
// encoded with delta-of-delta timestamps and XOR'd value bits — the
// append-optimized layout the ingest tier stores telemetry in once the
// open head of a SeriesEngine fills. Timestamps in telemetry arrive at
// near-constant cadence, so the second-order delta is almost always a
// small integer (often zero) and a varint encodes it in one byte;
// values drift slowly, so XORing consecutive float bits zeroes the
// high bytes the varint then drops.
//
// The same point-stream encoding carries ingest batches on the CP
// replication wire (rpc.go) and series ops in AP anti-entropy deltas
// (ap.go), so a reading is encoded the same way at rest and in flight —
// and held that way before it rests: an engine's open head and an AP
// origin log are point streams too.

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendPoints encodes pts onto dst with a leading count: the shared
// point-stream format of segments, RPC batches, and gossip deltas.
func appendPoints(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	var w pointWriter
	for _, p := range pts {
		dst = w.append(dst, p)
	}
	return dst
}

// pointWriter is the encoding half of the codec: what one point's
// encoding depends on from the points before it. A stream without its
// leading count — the open head of a SeriesEngine — is written by
// keeping one alive across calls. Setting n to 0 starts a new stream;
// until the next append, prevT and prevBits still hold the last point
// written.
type pointWriter struct {
	n                int // points written
	prevT, prevDelta int64
	prevBits         uint64
}

// last returns the last point written.
func (w *pointWriter) last() Point {
	return Point{T: time.Duration(w.prevT), V: math.Float64frombits(w.prevBits)}
}

// append encodes p onto dst as the next point of w's stream.
func (w *pointWriter) append(dst []byte, p Point) []byte {
	t := int64(p.T)
	if w.n == 0 {
		dst = binary.AppendUvarint(dst, zigzag(t))
		w.prevDelta, w.prevBits = 0, 0
	} else {
		delta := t - w.prevT
		dst = binary.AppendUvarint(dst, zigzag(delta-w.prevDelta))
		w.prevDelta = delta
	}
	w.prevT = t
	// XOR of consecutive float bits concentrates change in the HIGH
	// bytes (exponent + top mantissa) and zeros the low ones;
	// byte-reversing moves the zeros to the front where the varint
	// drops them — one byte for repeated values, two-three for the
	// slow drift telemetry exhibits.
	b := math.Float64bits(p.V)
	dst = binary.AppendUvarint(dst, bits.ReverseBytes64(b^w.prevBits))
	w.prevBits = b
	w.n++
	return dst
}

// reserve returns b with room for n more bytes. Where append would
// double a slice, reserve grows it by an eighth: a stream held for the
// life of a series — an open head, an origin log — costs about what it
// holds, not up to twice that.
func reserve(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	grown := append([]byte(nil), make([]byte, len(b)+max(n, len(b)/8))...) // capacity rounded up to the allocation
	return grown[:copy(grown, b)]
}

// streamLen returns the length of the point stream that starts data,
// one this package encoded: its count and two varints per point.
func streamLen(data []byte) int {
	n, i := binary.Uvarint(data)
	for left := 2 * n; left > 0; i++ {
		if data[i] < 0x80 {
			left--
		}
	}
	return i
}

// pointReader walks one encoded point stream.
type pointReader struct {
	data             []byte
	off              int    // bytes consumed
	left             uint64 // points not yet read
	first            bool
	prevT, prevDelta int64
	prevBits         uint64
}

// newPointReader reads the leading count of the stream at data.
func newPointReader(data []byte) (pointReader, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return pointReader{}, fmt.Errorf("store: truncated point count")
	}
	if n > uint64(len(data)) { // every point takes >= 2 bytes
		return pointReader{}, fmt.Errorf("store: point count %d exceeds payload", n)
	}
	return pointReader{data: data, off: used, left: n, first: true}, nil
}

// next reads one point; call it only while left > 0.
func (r *pointReader) next() (Point, error) {
	u, used := binary.Uvarint(r.data[r.off:])
	if used <= 0 {
		return Point{}, fmt.Errorf("store: truncated timestamp")
	}
	r.off += used
	if r.first {
		r.prevT, r.first = unzigzag(u), false
	} else {
		r.prevDelta += unzigzag(u)
		r.prevT += r.prevDelta
	}
	x, used := binary.Uvarint(r.data[r.off:])
	if used <= 0 {
		return Point{}, fmt.Errorf("store: truncated value")
	}
	r.off += used
	r.left--
	r.prevBits ^= bits.ReverseBytes64(x)
	return Point{T: time.Duration(r.prevT), V: math.Float64frombits(r.prevBits)}, nil
}

// mustNext reads one point of a stream this package encoded and holds,
// where a decode error is corruption, not bad input.
func (r *pointReader) mustNext() Point {
	p, err := r.next()
	if err != nil {
		panic(fmt.Sprintf("store: corrupt point stream: %v", err)) // encode/decode are a closed pair
	}
	return p
}

// appendAll decodes the points r has left onto dst.
func (r *pointReader) appendAll(dst []Point) []Point {
	for r.left > 0 {
		dst = append(dst, r.mustNext())
	}
	return dst
}

// fold folds the points r has left into h, each as digestPoints folds
// it.
func (r *pointReader) fold(h uint64) uint64 {
	for r.left > 0 {
		h = digestPoint(h, r.mustNext())
	}
	return h
}

// sortByTime stable-sorts pts by timestamp: late arrivals move to their
// stamp, equal stamps keep arrival order.
func sortByTime(pts []Point) {
	slices.SortStableFunc(pts, func(a, b Point) int { return cmp.Compare(a.T, b.T) })
}

// decodePoints appends the points encoded at data onto dst and returns
// the extended slice plus the number of bytes consumed.
func decodePoints(dst []Point, data []byte) ([]Point, int, error) {
	r, err := newPointReader(data)
	if err != nil {
		return dst, 0, err
	}
	for r.left > 0 {
		p, err := r.next()
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, p)
	}
	return dst, r.off, nil
}

// Segment is one immutable closed run of a series: points encoded with
// the delta-of-delta codec, bracketed by their time bounds for range
// pruning. Segments are created by SeriesEngine when the open head
// fills (or by compaction merging smaller segments) and never mutated.
type Segment struct {
	data []byte
	n    int
	minT time.Duration
	maxT time.Duration
}

// newSegment encodes pts (which must be sorted by T ascending; the
// engine sorts at close) into a fresh exact-size segment. scratch is an
// optional reusable encode buffer; the (possibly grown) buffer is
// returned so callers can keep it across closes.
func newSegment(pts []Point, scratch []byte) (*Segment, []byte) {
	if len(pts) == 0 {
		panic("store: empty segment")
	}
	scratch = appendPoints(scratch[:0], pts)
	data := make([]byte, len(scratch))
	copy(data, scratch)
	return &Segment{
		data: data,
		n:    len(pts),
		minT: pts[0].T,
		maxT: pts[len(pts)-1].T,
	}, scratch
}

// sealStream makes the segment of the stream w wrote, without its
// leading count, in timestamp order: the bytes newSegment would encode
// for its points, copied once into an exact-size segment.
func sealStream(stream []byte, w *pointWriter) *Segment {
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(w.n))
	data := make([]byte, k+len(stream))
	copy(data, count[:k])
	copy(data[k:], stream)
	first, _ := binary.Uvarint(stream)
	return &Segment{data: data, n: w.n, minT: time.Duration(unzigzag(first)), maxT: time.Duration(w.prevT)}
}

// reader reads the segment's points.
func (s *Segment) reader() pointReader {
	r, err := newPointReader(s.data)
	if err != nil {
		panic(fmt.Sprintf("store: corrupt segment: %v", err)) // encode/decode are a closed pair
	}
	return r
}

// Count returns the number of points in the segment.
func (s *Segment) Count() int { return s.n }

// MinT returns the earliest timestamp in the segment.
func (s *Segment) MinT() time.Duration { return s.minT }

// MaxT returns the latest timestamp in the segment.
func (s *Segment) MaxT() time.Duration { return s.maxT }

// SizeBytes returns the encoded size.
func (s *Segment) SizeBytes() int { return len(s.data) }

// AppendAll decodes every point onto dst.
func (s *Segment) AppendAll(dst []Point) []Point {
	r := s.reader()
	return r.appendAll(dst)
}

// AppendRange decodes the points with from <= T < to onto dst. The
// segment is time-sorted, so decode stops at the first point past to.
func (s *Segment) AppendRange(dst []Point, from, to time.Duration) []Point {
	if to <= s.minT || from > s.maxT {
		return dst
	}
	r := s.reader()
	for r.left > 0 {
		p := r.mustNext()
		if p.T >= to {
			break
		}
		if p.T >= from {
			dst = append(dst, p)
		}
	}
	return dst
}

// mergeSegments decodes and re-encodes segs into one segment, stable
// sorting by timestamp (cross-segment out-of-order arrivals are
// repaired here, preserving arrival order among equal timestamps).
// sortBuf and scratch are reusable work buffers, returned grown.
func mergeSegments(segs []*Segment, sortBuf []Point, scratch []byte) (*Segment, []Point, []byte) {
	sortBuf = sortBuf[:0]
	for _, s := range segs {
		sortBuf = s.AppendAll(sortBuf)
	}
	sortByTime(sortBuf)
	seg, scratch := newSegment(sortBuf, scratch)
	return seg, sortBuf, scratch
}
