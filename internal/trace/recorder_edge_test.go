package trace

import (
	"testing"
	"time"
)

// TestDroppedExactAcrossMultipleWraps pins Dropped() exactness when the
// ring has wrapped several times over: total and dropped must track
// every emission, not just the first wrap.
func TestDroppedExactAcrossMultipleWraps(t *testing.T) {
	var now time.Duration
	r := New(3, fixedClock(&now))
	for _, emits := range []struct {
		n            int
		total, dropp uint64
	}{
		{2, 2, 0},    // under capacity: nothing dropped
		{1, 3, 0},    // exactly full: still nothing dropped
		{1, 4, 1},    // first overwrite
		{8, 12, 9},   // wraps the ring twice more
		{30, 42, 39}, // ten further wraps
	} {
		for i := 0; i < emits.n; i++ {
			now++
			r.Emit(1, MACTx, 0, 0, 0, 0)
		}
		if r.Total() != emits.total || r.Dropped() != emits.dropp {
			t.Errorf("after %d emits: total=%d dropped=%d, want %d/%d",
				emits.total, r.Total(), r.Dropped(), emits.total, emits.dropp)
		}
	}
	if r.Count(MACTx) != 42 {
		t.Errorf("Count(MACTx) = %d, want 42 (exact across wraps)", r.Count(MACTx))
	}
}

// TestEventsOrderAfterWrap pins that Events() returns the retained
// window oldest-first even when the write cursor sits mid-ring.
func TestEventsOrderAfterWrap(t *testing.T) {
	var now time.Duration
	r := New(4, fixedClock(&now))
	// 4k+2 emissions leave the cursor mid-ring on every wrap count.
	for i := 0; i < 4*3+2; i++ {
		now = time.Duration(i) * time.Microsecond
		r.Emit(int32(i), MACTx, int64(i), 0, 0, uint64(i+1))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantNode := int32(10 + i) // newest four are 10..13
		if e.Node != wantNode || e.J != uint64(wantNode+1) {
			t.Errorf("retained[%d] = node %d j %d, want node %d j %d",
				i, e.Node, e.J, wantNode, wantNode+1)
		}
		if i > 0 && evs[i].At <= evs[i-1].At {
			t.Errorf("retained events out of time order at %d: %v <= %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

// TestResetThenReEmit pins that Reset() fully rewinds the ring — counts,
// totals, wrap state — and the recorder is immediately reusable.
func TestResetThenReEmit(t *testing.T) {
	var now time.Duration
	r := New(2, fixedClock(&now))
	for i := 0; i < 5; i++ {
		r.Emit(1, MACTx, 0, 0, 0, 0) // wraps twice
	}
	r.Reset()
	if r.Total() != 0 || r.Dropped() != 0 || r.Count(MACTx) != 0 || len(r.Events()) != 0 {
		t.Fatalf("after Reset: total=%d dropped=%d count=%d events=%d, want all 0",
			r.Total(), r.Dropped(), r.Count(MACTx), len(r.Events()))
	}
	now = 7 * time.Second
	r.Emit(9, LinkAck, 2, 0, 1.5, 3)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Node != 9 || evs[0].J != 3 {
		t.Fatalf("re-emit after Reset: events = %+v", evs)
	}
	if r.Total() != 1 || r.Dropped() != 0 {
		t.Errorf("re-emit after Reset: total=%d dropped=%d, want 1/0", r.Total(), r.Dropped())
	}
}

// TestFilterCombinatorComposition is the table test pinning Filter's
// replace-not-accumulate semantics: ByLayer(LayerAny) applied after a
// restriction lifts it cleanly, a later layer restriction replaces an
// earlier one, and multi-layer unions via ByLayers compose with the
// node dimension.
func TestFilterCombinatorComposition(t *testing.T) {
	var now time.Duration
	r := New(16, fixedClock(&now))
	r.Emit(1, RadioTx, 2, 40, 0, 1)
	r.Emit(2, RadioDeliver, 1, 40, 0, 1)
	r.Emit(1, MACTx, 2, 0, 0, 1)
	r.Emit(1, RPLDIOSent, -1, 256, 0, 0)
	r.Emit(3, CoAPRequest, 7, 1, 0, 2)
	r.Emit(-1, FaultPartition, 2, 0, 0, 0)

	count := func(f Filter) int {
		n := 0
		r.Each(f, func(Event) { n++ })
		return n
	}
	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", All(), 6},
		{"one layer", All().ByLayer(LayerRadio), 2},
		{"restrict then lift layer", All().ByLayer(LayerRadio).ByLayer(LayerAny), 6},
		{"later layer replaces earlier", All().ByLayer(LayerRadio).ByLayer(LayerMAC), 1},
		{"multi-layer union", All().ByLayers(LayerRadio, LayerMAC), 3},
		{"union replaced by single", All().ByLayers(LayerRadio, LayerMAC).ByLayer(LayerCoAP), 1},
		{"single replaced by union", All().ByLayer(LayerCoAP).ByLayers(LayerRadio, LayerFault), 3},
		{"ByLayers() lifts", All().ByLayer(LayerRadio).ByLayers(), 6},
		{"LayerAny inside union lifts", All().ByLayers(LayerRadio, LayerAny), 6},
		{"union + node", All().ByLayers(LayerRadio, LayerMAC).ByNode(1), 2},
		{"fault layer reachable", All().ByLayer(LayerFault), 1},
	}
	for _, c := range cases {
		if got := count(c.f); got != c.want {
			t.Errorf("%s: matched %d, want %d", c.name, got, c.want)
		}
	}
}
