package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func fixedClock(t *time.Duration) func() Time { return func() Time { return *t } }

func TestEmitAndOrder(t *testing.T) {
	var now time.Duration
	r := New(8, fixedClock(&now))
	for i := 0; i < 5; i++ {
		now = time.Duration(i) * time.Second
		r.Emit(int32(i), RPLDIOSent, -1, 256, 0, 0)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Node != int32(i) || e.At != time.Duration(i)*time.Second {
			t.Errorf("event %d out of order: %+v", i, e)
		}
	}
	if r.Total() != 5 || r.Dropped() != 0 {
		t.Errorf("total=%d dropped=%d, want 5/0", r.Total(), r.Dropped())
	}
}

func TestRingWrapKeepsNewestAndExactCounts(t *testing.T) {
	var now time.Duration
	r := New(4, fixedClock(&now))
	for i := 0; i < 10; i++ {
		now = time.Duration(i)
		r.Emit(int32(i), MACTx, 0, 0, 0, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Node != int32(6+i) {
			t.Errorf("retained[%d].Node = %d, want %d", i, e.Node, 6+i)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total=%d dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
	if r.Count(MACTx) != 10 {
		t.Errorf("Count(MACTx) = %d, want 10 (counts survive ring drops)", r.Count(MACTx))
	}
}

func TestFilter(t *testing.T) {
	var now time.Duration
	r := New(16, fixedClock(&now))
	r.Emit(1, RPLDIOSent, -1, 0, 0, 0)
	r.Emit(2, RPLDIORecv, 1, 0, 0, 0)
	r.Emit(1, MACTx, 2, 0, 0, 0)
	r.Emit(-1, StoreAppend, 1, 0, 0, 0)

	count := func(f Filter) int {
		n := 0
		r.Each(f, func(Event) { n++ })
		return n
	}
	if got := count(All()); got != 4 {
		t.Errorf("All() matched %d, want 4", got)
	}
	if got := count(All().ByNode(1)); got != 2 {
		t.Errorf("ByNode(1) matched %d, want 2", got)
	}
	if got := count(All().ByLayer(LayerRPL)); got != 2 {
		t.Errorf("ByLayer(rpl) matched %d, want 2", got)
	}
	if got := count(All().ByNode(1).ByLayer(LayerMAC)); got != 1 {
		t.Errorf("node 1 + mac matched %d, want 1", got)
	}
	if got := count(All().ByLayer(LayerAny)); got != 4 {
		t.Errorf("Any restriction matched %d, want 4", got)
	}
}

func TestJSONLDeterministicAndFiltered(t *testing.T) {
	build := func() *Recorder {
		var now time.Duration
		r := New(16, fixedClock(&now))
		now = 1500 * time.Millisecond
		r.Emit(3, RPLDIOSent, -1, 256, 0, 0)
		now = 2 * time.Second
		r.Emit(4, LinkAck, 3, 0, 1.25, 7)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a, All()); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b, All()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical recorders exported different JSONL:\n%s\n---\n%s", a.String(), b.String())
	}
	want := `{"at_ns":1500000000,"node":3,"layer":"rpl","type":"dio_sent","a":-1,"b":256,"f":0,"j":0}` + "\n" +
		`{"at_ns":2000000000,"node":4,"layer":"link","type":"ack","a":3,"b":0,"f":1.25,"j":7}` + "\n"
	if a.String() != want {
		t.Errorf("JSONL =\n%s\nwant\n%s", a.String(), want)
	}
	var f bytes.Buffer
	if err := build().WriteJSONL(&f, All().ByLayer(LayerLink)); err != nil {
		t.Fatal(err)
	}
	if got := f.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, `"layer":"link"`) {
		t.Errorf("filtered JSONL = %q", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	var now time.Duration
	a := New(4, fixedClock(&now))
	a.Emit(1, MACTx, 0, 0, 0, 0)
	a.Emit(1, MACTx, 0, 0, 0, 0)
	a.Emit(1, RPLDIOSent, 0, 0, 0, 0)
	b := New(2, fixedClock(&now))
	b.Emit(2, MACTx, 0, 0, 0, 0)
	b.Emit(2, StoreFlush, 0, 0, 0, 0)
	b.Emit(2, StoreFlush, 0, 0, 0, 0) // wraps: 1 dropped

	s := a.Summary()
	s.Add(b.Summary())
	if s.Total != 6 || s.Dropped != 1 {
		t.Fatalf("merged total=%d dropped=%d, want 6/1", s.Total, s.Dropped)
	}
	want := []TypeCount{
		{T: MACTx, Count: 3},
		{T: RPLDIOSent, Count: 1},
		{T: StoreFlush, Count: 2},
	}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("merged counts = %+v, want %+v", s.Counts, want)
	}

	// Merging in the opposite order must produce the same result
	// (associativity is what makes the runner's fold order-independent).
	s2 := b.Summary()
	s2.Add(a.Summary())
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("merge is order-dependent: %+v vs %+v", s, s2)
	}
}

func TestSummaryStringAndJSON(t *testing.T) {
	var now time.Duration
	r := New(4, fixedClock(&now))
	r.Emit(1, RNFDVerdict, 0, 2, 0, 0)
	s := r.Summary()
	str := s.String()
	if !strings.Contains(str, "rnfd_verdict") || !strings.Contains(str, "rpl") {
		t.Errorf("summary string missing fields:\n%s", str)
	}
	j, err := s.Counts[0].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j) != `{"layer":"rpl","type":"rnfd_verdict","count":1}` {
		t.Errorf("TypeCount JSON = %s", j)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(1, MACTx, 0, 0, 0, 0) // must not panic
	if r.Enabled() || r.Total() != 0 || r.Cap() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder not inert")
	}
	if evs := r.Events(); evs != nil {
		t.Errorf("nil recorder Events = %v", evs)
	}
	if s := r.Summary(); s.Total != 0 || len(s.Counts) != 0 {
		t.Errorf("nil recorder Summary = %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, All()); err != nil || buf.Len() != 0 {
		t.Error("nil recorder WriteJSONL wrote output")
	}
	r.Reset() // no-op
}

func TestTypeTableComplete(t *testing.T) {
	for typ := Type(0); typ < Type(NumTypes()); typ++ {
		if typ.String() == "?" || typ.String() == "" {
			t.Errorf("type %d has no name", typ)
		}
		if typ.Layer() >= numLayers {
			t.Errorf("type %d (%s) has no layer", typ, typ)
		}
	}
}

// TestEmitAllocs is the acceptance gate: the emit path must not allocate
// — neither disabled (nil recorder) nor enabled (preallocated ring).
func TestEmitAllocs(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Emit(3, MACTx, 7, 9, 1.5, 0)
	}); n != 0 {
		t.Errorf("disabled Emit allocates %.1f per op, want 0", n)
	}
	var now time.Duration
	r := New(1024, fixedClock(&now))
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(3, MACTx, 7, 9, 1.5, 0)
	}); n != 0 {
		t.Errorf("enabled Emit allocates %.1f per op, want 0", n)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(3, MACTx, 7, 9, 1.5, 0)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	var now time.Duration
	r := New(4096, fixedClock(&now))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(3, MACTx, 7, 9, 1.5, 0)
	}
}
