package agg

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/link"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/sim"
)

func TestPSRMergeCombinesAggregates(t *testing.T) {
	a := PSR{Count: 2, Sum: 10, Min: 3, Max: 7}
	b := PSR{Count: 1, Sum: 9, Min: 9, Max: 9}
	a.merge(b)
	if a.Count != 3 || a.Sum != 19 || a.Min != 3 || a.Max != 9 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestPSRMergeWithEmpty(t *testing.T) {
	a := PSR{}
	b := PSR{Count: 1, Sum: 5, Min: 5, Max: 5}
	a.merge(b)
	if a != b {
		t.Fatalf("empty.merge(x) = %+v, want %+v", a, b)
	}
	b.merge(PSR{})
	if b.Count != 1 {
		t.Fatal("merging empty changed state")
	}
}

func TestPSRMergeCommutativeAssociative(t *testing.T) {
	f := func(c1, c2, c3 uint8, s1, s2, s3 float64) bool {
		if math.IsNaN(s1) || math.IsNaN(s2) || math.IsNaN(s3) {
			return true
		}
		// Keep sums in a physical sensor range: float64 addition is not
		// associative near overflow, and no transducer reads 1e308.
		s1, s2, s3 = math.Mod(s1, 1e6), math.Mod(s2, 1e6), math.Mod(s3, 1e6)
		mk := func(c uint8, s float64) PSR {
			if c == 0 {
				return PSR{}
			}
			return PSR{Count: uint32(c), Sum: s, Min: s, Max: s}
		}
		a, b, c := mk(c1, s1), mk(c2, s2), mk(c3, s3)
		eq := func(x, y PSR) bool {
			return x.Count == y.Count && x.Min == y.Min && x.Max == y.Max &&
				math.Abs(x.Sum-y.Sum) <= 1e-6*(1+math.Abs(x.Sum))
		}
		ab := a
		ab.merge(b)
		ba := b
		ba.merge(a)
		if !eq(ab, ba) {
			return false
		}
		abc1 := ab
		abc1.merge(c)
		bc := b
		bc.merge(c)
		abc2 := a
		abc2.merge(bc)
		return eq(abc1, abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryValue(t *testing.T) {
	p := PSR{Count: 4, Sum: 20, Min: 2, Max: 9}
	cases := map[Func]float64{Count: 4, Sum: 20, Min: 2, Max: 9, Avg: 5}
	for fn, want := range cases {
		q := Query{Fn: fn}
		if got := q.value(p); got != want {
			t.Errorf("%v = %v, want %v", fn, got, want)
		}
	}
	if !math.IsNaN((Query{Fn: Avg}).value(PSR{})) {
		t.Fatal("AVG of empty PSR should be NaN")
	}
}

func TestFuncString(t *testing.T) {
	for fn, want := range map[Func]string{Count: "COUNT", Sum: "SUM", Min: "MIN", Max: "MAX", Avg: "AVG"} {
		if fn.String() != want {
			t.Errorf("%d = %q", fn, fn.String())
		}
	}
}

func TestSlotOffsetOrdering(t *testing.T) {
	q := Query{Epoch: 10 * time.Second, MaxDepth: 8}
	prev := time.Duration(-1)
	// Deeper nodes must transmit earlier within the epoch so partial
	// records cascade upward in one epoch.
	for depth := q.MaxDepth; depth >= 0; depth-- {
		st := &queryState{q: q, depth: depth}
		off := st.slotOffset()
		if off <= prev {
			t.Fatalf("slot offsets not increasing toward the root: depth=%d off=%v prev=%v", depth, off, prev)
		}
		if off <= 0 || off >= q.Epoch {
			t.Fatalf("offset %v outside epoch", off)
		}
		prev = off
	}
}

// buildAggNet creates an n-node line with routers and agg services.
func buildAggNet(t *testing.T, n int) (*sim.Kernel, []*Node, []*rpl.Router) {
	t.Helper()
	k := sim.New(77)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	macs := make([]*mac.CSMA, n)
	nodes := make([]*Node, n)
	routers := make([]*rpl.Router, n)
	for i := 0; i < n; i++ {
		id := radio.NodeID(i)
		idx := i
		m.Attach(id, radio.Position{X: float64(i) * 15}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].RadioReceive(f)
		}))
		macs[i] = mac.NewCSMA(m, id, mac.CSMAConfig{})
		macs[i].Start()
		lnk := link.New(id, macs[i])
		routers[i] = rpl.NewRouter(k, lnk, i == 0, 0, rpl.Config{
			Trickle:             rpl.TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 4, K: 3},
			DAOInterval:         5 * time.Second,
			ParentProbeInterval: 5 * time.Second,
		}, nil)
		val := 10 + float64(i)
		nodes[i] = NewNode(k, routers[i], lnk, func(attr string) (float64, bool) {
			return val, attr == "temp"
		})
		routers[i].Start()
	}
	return k, nodes, routers
}

func TestQueryDisseminationAndResults(t *testing.T) {
	k, nodes, _ := buildAggNet(t, 5)
	k.RunUntil(30 * time.Second)
	var results []Result
	nodes[0].OnResult = func(r Result) { results = append(results, r) }
	nodes[0].RunQuery(Query{ID: 3, Fn: Sum, Attr: "temp", Epoch: 10 * time.Second, MaxDepth: 6})
	k.RunFor(90 * time.Second)
	if len(results) < 5 {
		t.Fatalf("results = %d epochs", len(results))
	}
	// Sum over all 5 nodes (root samples too): 10+11+12+13+14 = 60.
	// TAG smears: a straggling record may miss its epoch and fold into
	// the next (which then over-counts), so require the exact result in
	// the majority of epochs rather than in every one.
	exact := 0
	for _, r := range results {
		if r.Count == 5 && r.Value == 60 {
			exact++
		}
	}
	if exact*2 < len(results) {
		t.Fatalf("only %d/%d epochs produced the exact aggregate", exact, len(results))
	}
}

func TestStopQueryHaltsResults(t *testing.T) {
	k, nodes, _ := buildAggNet(t, 3)
	k.RunUntil(20 * time.Second)
	count := 0
	nodes[0].OnResult = func(Result) { count++ }
	nodes[0].RunQuery(Query{ID: 4, Fn: Count, Attr: "temp", Epoch: 5 * time.Second, MaxDepth: 4})
	k.RunFor(20 * time.Second)
	got := count
	if got == 0 {
		t.Fatal("no results before stop")
	}
	nodes[0].StopQuery(4)
	k.RunFor(30 * time.Second)
	if count != got {
		t.Fatalf("results continued after StopQuery: %d -> %d", got, count)
	}
}

func TestRunQueryValidation(t *testing.T) {
	k, nodes, _ := buildAggNet(t, 2)
	_ = k
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-root RunQuery")
		}
	}()
	nodes[1].RunQuery(Query{ID: 9, Fn: Avg, Attr: "x", Epoch: time.Second})
}

func TestRunQueryZeroEpochPanics(t *testing.T) {
	_, nodes, _ := buildAggNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero epoch")
		}
	}()
	nodes[0].RunQuery(Query{ID: 9, Fn: Avg, Attr: "x"})
}

func TestLateRecordsFoldForward(t *testing.T) {
	// Two-node net where the link degrades mid-run: late PSRs are not
	// lost, they fold into the next epoch (TAG smearing).
	k, nodes, routers := buildAggNet(t, 2)
	_ = routers
	k.RunUntil(20 * time.Second)
	var total uint32
	nodes[0].OnResult = func(r Result) { total += r.Count }
	nodes[0].RunQuery(Query{ID: 5, Fn: Count, Attr: "temp", Epoch: 5 * time.Second, MaxDepth: 3})
	k.RunFor(60 * time.Second)
	if total == 0 {
		t.Fatal("no records collected")
	}
}

// floodBytes encodes the flood a node forwarding q at depth would send.
func floodBytes(t testing.TB, q Query, depth int) []byte {
	t.Helper()
	data, err := json.Marshal(floodMsg{Query: q, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint16(nil, q.ID), data...)
}

// advancesPast reports whether k gets past instant at within limit
// events; an event that reschedules itself at at forever holds it there.
func advancesPast(k *sim.Kernel, at sim.Time, limit int) bool {
	for i := 0; i < limit && k.Now() <= at; i++ {
		if !k.Step() {
			return true
		}
	}
	return k.Now() > at
}

func TestFloodWithZeroEpochDropped(t *testing.T) {
	k, nodes, _ := buildAggNet(t, 2)
	k.RunUntil(5 * time.Second)
	nodes[1].onFlood(0, floodBytes(t, Query{ID: 7, Fn: Avg, Attr: "temp", MaxDepth: 4}, 0))
	if _, ok := nodes[1].queries[7]; ok {
		t.Fatal("a query with a zero epoch was installed")
	}
	k.RunFor(10 * time.Second)
}

func TestFloodWithNegativeDepthBoundLetsKernelAdvance(t *testing.T) {
	k, nodes, _ := buildAggNet(t, 2)
	k.RunUntil(5 * time.Second)
	at := k.Now()
	nodes[1].onFlood(0, floodBytes(t, Query{ID: 7, Fn: Avg, Attr: "temp", Epoch: 10 * time.Second, MaxDepth: -2}, 0))
	if !advancesPast(k, at, 10000) {
		t.Fatalf("kernel still at %v after 10000 events", at)
	}
	if _, ok := nodes[1].queries[7]; ok {
		t.Fatal("a query with a negative depth bound was installed")
	}
}
