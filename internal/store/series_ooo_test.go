package store

import (
	"testing"
	"time"

	"iiotds/internal/metrics"
)

// Regression tests for the out-of-order contract on the flat Series
// ring: late samples are stored (arrival-ordered retention), counted,
// surfaced via a labeled metric, and Range repairs the order.

func TestSeriesOutOfOrderDetected(t *testing.T) {
	s := NewSeries(10)
	s.Append(Point{T: secs(1), V: 1})
	s.Append(Point{T: secs(3), V: 3})
	s.Append(Point{T: secs(2), V: 2}) // late
	s.Append(Point{T: secs(3), V: 3.5})
	if s.OutOfOrder() != 1 {
		t.Fatalf("OutOfOrder = %d, want 1 (equal timestamps are in order)", s.OutOfOrder())
	}
	if s.Total() != 4 || s.Len() != 4 {
		t.Fatalf("late sample dropped: Total=%d Len=%d", s.Total(), s.Len())
	}
}

func TestSeriesRangeSortsOutOfOrder(t *testing.T) {
	s := NewSeries(10)
	for _, i := range []int{1, 4, 2, 3} {
		s.Append(Point{T: secs(i), V: float64(i)})
	}
	got := s.Range(0, time.Hour)
	for i, p := range got {
		if p.T != secs(i+1) {
			t.Fatalf("Range not time-sorted: %+v", got)
		}
	}
	// Bounded ranges sort too.
	got = s.Range(secs(2), secs(4))
	if len(got) != 2 || got[0].V != 2 || got[1].V != 3 {
		t.Fatalf("bounded Range = %+v", got)
	}
}

func TestSeriesRangeStableForEqualTimestamps(t *testing.T) {
	s := NewSeries(10)
	s.Append(Point{T: secs(2), V: 1}) // first arrival at T=2s
	s.Append(Point{T: secs(1), V: 0}) // late: forces the sort path
	s.Append(Point{T: secs(2), V: 2}) // second arrival at T=2s
	got := s.Range(0, time.Hour)
	if len(got) != 3 || got[0].V != 0 || got[1].V != 1 || got[2].V != 2 {
		t.Fatalf("equal-T arrival order broken: %+v", got)
	}
}

func TestSeriesRangeInOrderFastPathUnchanged(t *testing.T) {
	// With no out-of-order arrivals Range stays the plain arrival-order
	// scan (the pre-refactor behavior).
	s := NewSeries(5)
	for i := 0; i < 8; i++ { // wraps the ring
		s.Append(Point{T: secs(i), V: float64(i)})
	}
	got := s.Range(0, time.Hour)
	if len(got) != 5 || got[0].V != 3 || got[4].V != 7 {
		t.Fatalf("Range = %+v", got)
	}
	if s.OutOfOrder() != 0 {
		t.Fatalf("OutOfOrder = %d on in-order input", s.OutOfOrder())
	}
}

func TestSeriesOutOfOrderEvictionKeepsArrivalRetention(t *testing.T) {
	// Retention evicts the oldest arrival, not the oldest timestamp: a
	// late-but-retained sample survives an earlier-arrived newer one.
	s := NewSeries(2)
	s.Append(Point{T: secs(5), V: 5})
	s.Append(Point{T: secs(1), V: 1}) // late
	s.Append(Point{T: secs(6), V: 6}) // evicts the T=5s sample (oldest arrival)
	got := s.Range(0, time.Hour)
	if len(got) != 2 || got[0].T != secs(1) || got[1].T != secs(6) {
		t.Fatalf("retained = %+v", got)
	}
}

func TestSeriesOutOfOrderLabeledMetric(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSeries(10)
	s.SetMetrics(reg, "plant/temp")
	s.Append(Point{T: secs(2), V: 2})
	s.Append(Point{T: secs(1), V: 1})
	s.Append(Point{T: secs(3), V: 3})
	s.Append(Point{T: secs(1), V: 1})
	ctr := reg.CounterWith("store_ooo_points", metrics.L("series", "plant/temp"))
	if got := ctr.Value(); got != 2 {
		t.Fatalf("store_ooo_points{series=plant/temp} = %v, want 2", got)
	}
}

// The same fixtures on the segment engine's read path, which sorts only
// when it has to: late points are placed by stamp, equal stamps keep
// arrival order, and in-order data — head only or across closed
// segments — comes back as it went in.
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
		if e.OutOfOrder() != 0 {
			t.Fatalf("segSize %d: OutOfOrder = %d on in-order input", segSize, e.OutOfOrder())
		}
	}
}
