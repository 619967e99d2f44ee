package store

import (
	"testing"
	"time"
)

// The out-of-order fixtures on the segment engine's read path, which
// sorts only when it has to: late points are placed by stamp, equal
// stamps keep arrival order, and in-order data — head only or across
// closed segments — comes back as it went in.
func TestEngineRangeOutOfOrderFixtures(t *testing.T) {
	for _, segSize := range []int{2, 3, 512} { // late points within a segment, across segments, in the head
		e := NewSeriesEngine(segSize)
		for _, i := range []int{1, 4, 2, 3} {
			e.Append(Point{T: secs(i), V: float64(i)})
		}
		got := e.Range(0, time.Hour)
		for i, p := range got {
			if len(got) != 4 || p.T != secs(i+1) {
				t.Fatalf("segSize %d: Range not time-sorted: %+v", segSize, got)
			}
		}
		if got = e.Range(secs(2), secs(4)); len(got) != 2 || got[0].V != 2 || got[1].V != 3 {
			t.Fatalf("segSize %d: bounded Range = %+v", segSize, got)
		}

		e = NewSeriesEngine(segSize)
		e.Append(Point{T: secs(2), V: 1}) // first arrival at T=2s
		e.Append(Point{T: secs(1), V: 0}) // late: forces the sort path
		e.Append(Point{T: secs(2), V: 2}) // second arrival at T=2s
		if got = e.Range(0, time.Hour); len(got) != 3 || got[0].V != 0 || got[1].V != 1 || got[2].V != 2 {
			t.Fatalf("segSize %d: equal-T arrival order broken: %+v", segSize, got)
		}

		e = NewSeriesEngine(segSize)
		for i := 0; i < 8; i++ {
			e.Append(Point{T: secs(i / 2), V: float64(i)}) // in order, stamps in equal pairs
		}
		got = e.Range(0, time.Hour)
		for i, p := range got {
			if len(got) != 8 || p.V != float64(i) {
				t.Fatalf("segSize %d: in-order Range reordered: %+v", segSize, got)
			}
		}
		if n := e.Stats().OutOfOrder; n != 0 {
			t.Fatalf("segSize %d: OutOfOrder = %d on in-order input", segSize, n)
		}
	}
}
