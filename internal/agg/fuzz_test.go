package agg

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzFlood feeds arbitrary bytes to onFlood, the decoder of every query
// a neighbour floods. It must not panic, may install only a query
// RunQuery could have sent, and must let the kernel get past the
// instant the flood arrived.
func FuzzFlood(f *testing.F) {
	q := Query{ID: 3, Fn: Sum, Attr: "temp", Epoch: 10 * time.Second, MaxDepth: 6}
	f.Add(floodBytes(f, q, 0))
	f.Add(floodBytes(f, q, 9))
	f.Add(floodBytes(f, Query{ID: 4, Fn: Avg, Attr: "temp", MaxDepth: 4}, 0))
	f.Add(floodBytes(f, Query{ID: 5, Fn: Max, Epoch: time.Second, MaxDepth: -2}, 0))
	f.Add(floodBytes(f, Query{ID: 6, Fn: Min, Epoch: math.MaxInt64, MaxDepth: math.MaxInt64}, 0))
	f.Add(floodBytes(f, Query{ID: 7, Fn: Count, Epoch: time.Second, MaxDepth: 4}, math.MaxInt))
	f.Add([]byte{0, 1, '{', '}'})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		k, nodes, _ := buildAggNet(t, 2)
		at := k.Now()
		nodes[1].onFlood(0, raw)
		for id, st := range nodes[1].queries {
			if st.q.Epoch <= 0 || st.q.MaxDepth < 1 || st.depth < 1 {
				t.Fatalf("installed query %d: %+v at depth %d", id, st.q, st.depth)
			}
		}
		if !advancesPast(k, at, 1000) {
			t.Fatalf("flood %q holds the kernel at %v", raw, at)
		}
	})
}

// FuzzPSR feeds arbitrary bytes to onPSR, the decoder of every partial
// state record a child sends. A record that does not decode or names no
// running query changes nothing; one that does is merged into the
// epoch being accumulated, and counted late if it names an earlier one.
func FuzzPSR(f *testing.F) {
	for _, p := range []PSR{
		{QueryID: 3, EpochNo: 1, Count: 2, Sum: 21, Min: 10, Max: 11},
		{QueryID: 3, EpochNo: 0, Count: 1, Sum: -4, Min: -4, Max: -4},
		{QueryID: 9, EpochNo: 5, Count: 1},
		{QueryID: 3, Count: 1<<32 - 1},
	} {
		raw, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"q":3,"n":1,"s":1e308,"min":-1e308}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		k, nodes, _ := buildAggNet(t, 2)
		n := nodes[1]
		n.onFlood(0, floodBytes(t, Query{ID: 3, Fn: Sum, Attr: "temp", Epoch: 10 * time.Second, MaxDepth: 6}, 0))
		st := n.queries[3]
		st.pending = PSR{QueryID: 3, EpochNo: st.epochNo, Count: 1, Sum: 5, Min: 5, Max: 5}
		before, late := st.pending, n.LateRecords
		n.onPSR(0, raw)
		var p PSR
		if json.Unmarshal(raw, &p) != nil || p.QueryID != 3 {
			if st.pending != before || n.LateRecords != late {
				t.Fatalf("record %q changed state: %+v, late %d", raw, st.pending, n.LateRecords)
			}
			return
		}
		want := before
		want.merge(p)
		if st.pending != want {
			t.Fatalf("record %q merged to %+v, want %+v", raw, st.pending, want)
		}
		if wantLate := late + btoi(p.EpochNo < st.epochNo); n.LateRecords != wantLate {
			t.Fatalf("record for epoch %d (now %d): late %d, want %d", p.EpochNo, st.epochNo, n.LateRecords, wantLate)
		}
		k.RunFor(time.Second)
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
