package store

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeriesAppendAndLast(t *testing.T) {
	e := NewSeriesEngine(2) // the second append closes a segment: the last point must not depend on the head
	if pts := e.Range(0, secs(10)); len(pts) != 0 {
		t.Fatalf("empty series holds %+v", pts)
	}
	for i := 1; i <= 3; i++ {
		e.Append(Point{T: secs(i), V: float64(i)})
		if pts := e.Range(0, secs(10)); len(pts) != i || pts[i-1].V != float64(i) {
			t.Fatalf("after %d appends the series reads %+v", i, pts)
		}
	}
	if st := e.Stats(); e.Len() != 3 || st.Points != 3 {
		t.Fatalf("Len/Points = %d/%d", e.Len(), st.Points)
	}
}

func TestSeriesOutOfOrderDetected(t *testing.T) {
	e := NewSeriesEngine(0)
	e.Append(Point{T: secs(1), V: 1})
	e.Append(Point{T: secs(3), V: 3})
	e.Append(Point{T: secs(2), V: 2}) // late
	e.Append(Point{T: secs(3), V: 3.5})
	st := e.Stats()
	if st.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d, want 1 (equal timestamps are in order)", st.OutOfOrder)
	}
	if st.Points != 4 || e.Len() != 4 {
		t.Fatalf("late sample dropped: Points=%d Len=%d", st.Points, e.Len())
	}
}

func TestEngineAppendRangeAcrossSegments(t *testing.T) {
	e := NewSeriesEngine(4) // tiny segments: closes every 4 points
	for i := 0; i < 10; i++ {
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	if e.Len() != 10 || e.Stats().Points != 10 {
		t.Fatalf("Len/Points = %d/%d", e.Len(), e.Stats().Points)
	}
	st := e.Stats()
	if st.ClosedSegs != 2 || st.OpenPoints != 2 {
		t.Fatalf("segments: %+v", st)
	}
	got := e.Range(secs(3), secs(8)) // spans closed/closed/open
	if len(got) != 5 {
		t.Fatalf("range = %d points", len(got))
	}
	for i, p := range got {
		if p.V != float64(i+3) {
			t.Fatalf("range[%d] = %+v", i, p)
		}
	}
}

func TestEngineOutOfOrderCountedAndSorted(t *testing.T) {
	e := NewSeriesEngine(4)
	times := []int{1, 2, 5, 3, 4, 8, 6, 7} // late arrivals: 3, 4 (after 5) and 6, 7 (after 8)
	for _, i := range times {
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	if n := e.Stats().OutOfOrder; n != 4 {
		t.Fatalf("OutOfOrder = %d, want 4", n)
	}
	got := e.Range(0, time.Hour)
	for i, p := range got {
		if p.T != secs(i+1) {
			t.Fatalf("range not time-sorted at %d: %+v", i, got)
		}
	}
}

func TestEngineEqualTimestampsKeepArrivalOrder(t *testing.T) {
	e := NewSeriesEngine(3)
	for i := 0; i < 7; i++ {
		e.Append(Point{T: secs(1), V: float64(i)}) // all equal T
	}
	got := e.Range(0, time.Hour)
	for i, p := range got {
		if p.V != float64(i) {
			t.Fatalf("equal-T arrival order broken: %+v", got)
		}
	}
}

func TestEngineFlushClosesHead(t *testing.T) {
	e := NewSeriesEngine(100)
	e.Append(Point{T: secs(1), V: 1})
	e.Append(Point{T: secs(2), V: 2})
	if st := e.Stats(); st.OpenPoints != 2 || st.ClosedSegs != 0 {
		t.Fatalf("pre-flush: %+v", st)
	}
	e.Flush()
	if st := e.Stats(); st.OpenPoints != 0 || st.ClosedSegs != 1 {
		t.Fatalf("post-flush: %+v", st)
	}
	if got := e.Range(0, time.Hour); len(got) != 2 {
		t.Fatalf("post-flush range = %+v", got)
	}
}

func TestEngineSizeTieredCompaction(t *testing.T) {
	e := NewSeriesEngine(2)
	// 2*compactFanIn segments of 2 points each: one compaction fires.
	for i := 0; i < 2*2*compactFanIn; i++ {
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d closes: %+v", st.SegsClosed, st)
	}
	if st.ClosedSegs >= int(st.SegsClosed) {
		t.Fatalf("compaction did not shrink segment count: %+v", st)
	}
	if e.Len() != 2*2*compactFanIn {
		t.Fatalf("points lost in compaction: %d", e.Len())
	}
}

func TestEngineForceCompact(t *testing.T) {
	e := NewSeriesEngine(2)
	for i := 0; i < 10; i++ {
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	e.Flush()
	e.Compact()
	if st := e.Stats(); st.ClosedSegs != 1 {
		t.Fatalf("Compact left %d segments", st.ClosedSegs)
	}
	if e.Len() != 10 {
		t.Fatalf("Len = %d after Compact", e.Len())
	}
}

func TestEngineRetention(t *testing.T) {
	e := NewSeriesEngine(2)
	e.SetRetention(2) // keep at most 2 closed segments
	for i := 0; i < 12; i++ {
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	st := e.Stats()
	if st.ClosedSegs > 2 {
		t.Fatalf("retention not enforced: %+v", st)
	}
	if st.Evicted == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if e.Len()+int(st.Evicted) != 12 {
		t.Fatalf("retained %d + evicted %d != 12", e.Len(), st.Evicted)
	}
	// The newest points survive.
	got := e.Range(0, time.Hour)
	if got[len(got)-1].V != 11 {
		t.Fatalf("newest point evicted: %+v", got)
	}
}

func TestEngineDigestSegmentationIndependent(t *testing.T) {
	// Same points, different close/compact timing -> same digest.
	a := NewSeriesEngine(4)
	b := NewSeriesEngine(64)
	for i := 0; i < 50; i++ {
		p := Point{T: secs(i), V: float64(i)}
		a.Append(p)
		b.Append(p)
	}
	a.Flush()
	a.Compact()
	if da, db := a.digest(fnvOffset, new(work)), b.digest(fnvOffset, new(work)); da != db {
		t.Fatalf("digest depends on segmentation: %x != %x", da, db)
	}
	b.Append(Point{T: secs(50), V: 50})
	if da, db := a.digest(fnvOffset, new(work)), b.digest(fnvOffset, new(work)); da == db {
		t.Fatal("digest blind to extra point")
	}
}

// TestBatchedAppendZeroAllocs is the CI allocation gate for the ingest
// hot path. A head grows with its contents until its first segment
// closes and is reused at full size from then on, so the engine is first
// warmed to that working state — one segment filled and closed at the
// default size — and then appending batches into the open head must not
// allocate at all. The measured window stays inside one segment: closing
// one is the amortized slow path — encode buffer and segment bytes —
// exactly like the netbuf pool refill.
func TestBatchedAppendZeroAllocs(t *testing.T) {
	e := NewSeriesEngine(0)
	batch := make([]Point, 16)
	var tm time.Duration
	appendBatch := func() {
		for i := range batch {
			tm += time.Millisecond
			batch[i] = Point{T: tm, V: float64(i)}
		}
		e.AppendBatch(batch)
	}
	for e.Stats().SegsClosed == 0 {
		appendBatch()
	}
	if st := e.Stats(); st.OpenPoints != 0 {
		t.Fatalf("warm-up left %d points in the head", st.OpenPoints)
	}
	runs := DefaultSegmentSize/len(batch) - 2 // AllocsPerRun adds a run of its own
	allocs := testing.AllocsPerRun(runs, appendBatch)
	if st := e.Stats(); st.SegsClosed != 1 {
		t.Fatalf("%d segments closed: the measured window left the head", st.SegsClosed)
	}
	if allocs != 0 {
		t.Fatalf("AppendBatch allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	e := NewSeriesEngine(0)
	batch := make([]Point, 64)
	var tm time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			tm += time.Millisecond
			batch[j] = Point{T: tm, V: float64(j)}
		}
		e.AppendBatch(batch)
	}
}

// TestEngineRetentionReleasesEvicted: the retention bound bounds what an
// engine holds. Evicting a segment, or merging it away, must not leave
// it reachable through the backing array of the closed list.
func TestEngineRetentionReleasesEvicted(t *testing.T) {
	var freed atomic.Int64
	e := NewSeriesEngine(2)
	e.SetRetention(4)
	closed := 0
	for i := 0; e.Stats().Evicted < 2*100; i++ { // 100 evictions of 2-point segments
		e.Append(Point{T: secs(i), V: float64(i)})
		if e.hw.n == 0 { // this append closed a segment: the newest one
			runtime.SetFinalizer(e.closed[len(e.closed)-1], func(*Segment) { freed.Add(1) })
			closed++
		}
	}
	if len(e.closed) != 4 {
		t.Fatalf("%d closed segments retained, want 4", len(e.closed))
	}
	if c := cap(e.closed); c > 8 {
		t.Fatalf("cap(closed) = %d after 100 evictions at SetRetention(4), want <= 8", c)
	}
	for i, seg := range e.closed[len(e.closed):cap(e.closed)] {
		if seg != nil {
			t.Fatalf("closed[%d] past the end still holds a segment", len(e.closed)+i)
		}
	}
	want := int64(closed - len(e.closed))
	for try := 0; try < 100 && freed.Load() < want; try++ {
		runtime.GC() // finalizers run after the cycle that finds their object unreachable
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of %d evicted segments were collected: the rest are still reachable", got, want)
	}
	runtime.KeepAlive(e)

	e = NewSeriesEngine(2)
	for i := 0; i < 2*2*compactFanIn+6; i++ { // size-tiered compactions, then a forced one
		e.Append(Point{T: secs(i), V: float64(i)})
	}
	e.Compact()
	if len(e.closed) != 1 {
		t.Fatalf("Compact left %d segments", len(e.closed))
	}
	for i, seg := range e.closed[1:cap(e.closed)] {
		if seg != nil {
			t.Fatalf("closed[%d] past the end still holds a merged segment", 1+i)
		}
	}
}

// TestEngineDigestMatchesRange: the digest is digestPoints over every
// appended point in canonical order — stamps outside any window
// included — in order or not, and one work buffer reused across
// engines (as cpState.digest reuses it) carries nothing over.
func TestEngineDigestMatchesRange(t *testing.T) {
	w := new(work)
	histories := map[string][]Point{
		"in order":          {{T: secs(1), V: 1}, {T: secs(2), V: 2}, {T: secs(2), V: 2.5}, {T: secs(3), V: 3}, {T: secs(4), V: 4}},
		"late points":       {{T: secs(1), V: 1}, {T: secs(4), V: 4}, {T: secs(2), V: 2}, {T: secs(3), V: 3}},
		"equal-T late":      {{T: secs(2), V: 1}, {T: secs(1), V: 0}, {T: secs(2), V: 2}},
		"past the window":   {{T: secs(1), V: 1}, {T: maxTime, V: 2}, {T: maxTime + 1, V: 3}},
		"before the window": {{T: minTime - 1, V: 1}, {T: minTime, V: 2}, {T: secs(1), V: 3}},
		"extremes":          extremePoints,
		"empty":             nil,
	}
	for i := 0; i < 8; i++ {
		histories["equal pairs"] = append(histories["equal pairs"], Point{T: secs(i / 2), V: float64(i)})
	}
	for _, segSize := range []int{2, 3, 512} {
		for name, pts := range histories {
			for _, flush := range []bool{false, true} {
				e := NewSeriesEngine(segSize)
				e.AppendBatch(pts)
				if flush {
					e.Flush()
					e.Compact()
				}
				canon := append([]Point(nil), pts...)
				sortByTime(canon)
				if all := e.appendAll(nil); !samePoints(all, canon) {
					t.Fatalf("segSize %d, %s, flushed %v: whole read %v, want %v", segSize, name, flush, all, canon)
				}
				want := digestPoints(fnvOffset, canon)
				if got := e.digest(fnvOffset, w); got != want {
					t.Fatalf("segSize %d, %s, flushed %v: digest %x, want %x", segSize, name, flush, got, want)
				}
			}
		}
	}
}
