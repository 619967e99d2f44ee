package store

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func secs(i int) time.Duration { return time.Duration(i) * time.Second }

func TestPointCodecRoundTrip(t *testing.T) {
	cases := [][]Point{
		nil,
		{{T: 0, V: 0}},
		{{T: secs(1), V: 20.5}, {T: secs(2), V: 20.5}, {T: secs(3), V: 20.7}},
		{{T: -secs(5), V: -1}, {T: 0, V: math.Inf(1)}, {T: secs(9), V: math.SmallestNonzeroFloat64}},
		// irregular cadence — exercises nonzero delta-of-deltas
		{{T: 1, V: 1}, {T: 100, V: 2}, {T: 101, V: 3}, {T: 5000, V: 4}},
	}
	for i, pts := range cases {
		enc := appendPoints(nil, pts)
		got, used, err := decodePoints(nil, enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if used != len(enc) {
			t.Fatalf("case %d: used %d of %d bytes", i, used, len(enc))
		}
		if len(got) != len(pts) {
			t.Fatalf("case %d: %d points, want %d", i, len(got), len(pts))
		}
		for j := range pts {
			if got[j].T != pts[j].T || math.Float64bits(got[j].V) != math.Float64bits(pts[j].V) {
				t.Fatalf("case %d point %d: %+v != %+v", i, j, got[j], pts[j])
			}
		}
	}
}

func TestPointCodecRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]Point, 1000)
	tm := time.Duration(0)
	for i := range pts {
		tm += time.Duration(rng.Intn(2000)-3) * time.Millisecond // occasionally backwards
		pts[i] = Point{T: tm, V: rng.NormFloat64() * 100}
	}
	enc := appendPoints(nil, pts)
	got, _, err := decodePoints(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pts) {
		t.Fatal("random round-trip mismatch")
	}
}

func TestPointCodecCompressesConstantCadence(t *testing.T) {
	// Constant-cadence, slow-drift telemetry is the target workload:
	// the encoding should be far below the 16 raw bytes per point.
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{T: secs(i), V: 20 + float64(i%3)*0.25}
	}
	enc := appendPoints(nil, pts)
	if perPt := float64(len(enc)) / float64(len(pts)); perPt > 8 {
		t.Fatalf("%.1f bytes/point, want <= 8", perPt)
	}
}

func TestDecodePointsTruncated(t *testing.T) {
	enc := appendPoints(nil, []Point{{T: secs(1), V: 1}, {T: secs(2), V: 2}})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodePoints(nil, enc[:cut]); err == nil && cut < len(enc) {
			// A prefix that still parses must at least not claim more
			// points than it holds; the count prefix makes short cuts fail.
			t.Fatalf("truncated to %d bytes decoded without error", cut)
		}
	}
}

func TestSegmentRange(t *testing.T) {
	pts := []Point{{T: secs(1), V: 1}, {T: secs(2), V: 2}, {T: secs(3), V: 3}, {T: secs(4), V: 4}}
	seg, _ := newSegment(pts, nil)
	if seg.Count() != 4 || seg.minT != secs(1) || seg.maxT != secs(4) {
		t.Fatalf("bounds: n=%d min=%v max=%v", seg.Count(), seg.minT, seg.maxT)
	}
	got := seg.AppendRange(nil, secs(2), secs(4)) // half-open: [2s, 4s)
	if len(got) != 2 || got[0].V != 2 || got[1].V != 3 {
		t.Fatalf("range = %+v", got)
	}
	if got := seg.AppendRange(nil, secs(10), secs(20)); len(got) != 0 {
		t.Fatalf("out-of-bounds range = %+v", got)
	}
}

// TestSegmentRangeStopsAtTo: a range read decodes no further than the
// first point at or past to — the bytes behind it, here overwritten
// with what no varint decodes from, are never looked at.
func TestSegmentRangeStopsAtTo(t *testing.T) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{T: secs(i), V: float64(i)}
	}
	seg, _ := newSegment(pts, nil)
	want := seg.AppendRange(nil, secs(3), secs(10))
	if len(want) != 7 || want[0].V != 3 || want[6].V != 9 {
		t.Fatalf("range = %+v", want)
	}
	ten := len(appendPoints(nil, pts[:11])) // the stream is a prefix code: points 0..10 end here
	for i := ten; i < len(seg.data); i++ {
		seg.data[i] = 0xff
	}
	if got := seg.AppendRange(nil, secs(3), secs(10)); !samePoints(got, want) {
		t.Fatalf("range over a segment unreadable after point 10 = %+v", got)
	}
	// Equal stamps at the boundary: every point at to is excluded, every
	// point at from included.
	dup, _ := newSegment([]Point{{T: 1, V: 1}, {T: 2, V: 2}, {T: 2, V: 3}, {T: 3, V: 4}, {T: 3, V: 5}}, nil)
	if got := dup.AppendRange(nil, 2, 3); len(got) != 2 || got[0].V != 2 || got[1].V != 3 {
		t.Fatalf("boundary range = %+v", got)
	}
}

func TestMergeSegmentsSortsAcross(t *testing.T) {
	a, _ := newSegment([]Point{{T: secs(5), V: 5}, {T: secs(7), V: 7}}, nil)
	b, _ := newSegment([]Point{{T: secs(1), V: 1}, {T: secs(6), V: 6}}, nil)
	merged, _, _ := mergeSegments([]*Segment{a, b}, nil, nil)
	got := merged.AppendAll(nil)
	want := []float64{1, 5, 6, 7}
	if len(got) != 4 {
		t.Fatalf("merged %d points", len(got))
	}
	for i, v := range want {
		if got[i].V != v {
			t.Fatalf("merged[%d] = %+v, want V=%v", i, got[i], v)
		}
	}
}
