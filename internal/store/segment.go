package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
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
// (ap.go), so a reading is encoded the same way at rest and in flight.

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendPoints encodes pts onto dst with a leading count: the shared
// point-stream format of segments, RPC batches, and gossip deltas.
func appendPoints(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	var prevT, prevDelta int64
	var prevBits uint64
	for i, p := range pts {
		t := int64(p.T)
		switch i {
		case 0:
			dst = binary.AppendUvarint(dst, zigzag(t))
			prevT = t
		default:
			delta := t - prevT
			dst = binary.AppendUvarint(dst, zigzag(delta-prevDelta))
			prevDelta = delta
			prevT = t
		}
		// XOR of consecutive float bits concentrates change in the HIGH
		// bytes (exponent + top mantissa) and zeros the low ones;
		// byte-reversing moves the zeros to the front where the varint
		// drops them — one byte for repeated values, two-three for the
		// slow drift telemetry exhibits.
		b := math.Float64bits(p.V)
		dst = binary.AppendUvarint(dst, bits.ReverseBytes64(b^prevBits))
		prevBits = b
	}
	return dst
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
	out, _, err := decodePoints(dst, s.data)
	if err != nil {
		panic(fmt.Sprintf("store: corrupt segment: %v", err)) // encode/decode are a closed pair
	}
	return out
}

// AppendRange decodes the points with from <= T < to onto dst. The
// segment is time-sorted, so decode stops at the first point past to.
func (s *Segment) AppendRange(dst []Point, from, to time.Duration) []Point {
	if to <= s.minT || from > s.maxT {
		return dst
	}
	r, err := newPointReader(s.data)
	for err == nil && r.left > 0 {
		var p Point
		if p, err = r.next(); err != nil || p.T >= to {
			break
		}
		if p.T >= from {
			dst = append(dst, p)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("store: corrupt segment: %v", err)) // encode/decode are a closed pair
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
	sort.SliceStable(sortBuf, func(i, j int) bool { return sortBuf[i].T < sortBuf[j].T })
	seg, scratch := newSegment(sortBuf, scratch)
	return seg, sortBuf, scratch
}
