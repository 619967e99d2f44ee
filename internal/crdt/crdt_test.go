package crdt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// --- VClock ---

func TestVClockCompare(t *testing.T) {
	a := NewVClock().Tick("a")
	b := NewVClock().Tick("b")
	if a.Compare(b) != Concurrent || b.Compare(a) != Concurrent {
		t.Fatal("independent ticks must be concurrent")
	}
	c := a.Copy()
	c.Tick("a")
	if a.Compare(c) != Before || c.Compare(a) != After {
		t.Fatal("extension must be after")
	}
	if a.Compare(a.Copy()) != Equal {
		t.Fatal("copy must be equal")
	}
}

func TestVClockMergeDominates(t *testing.T) {
	a := NewVClock().Tick("a")
	b := NewVClock().Tick("b")
	m := a.Copy()
	m.Merge(b)
	if !m.Dominates(a) || !m.Dominates(b) {
		t.Fatal("merge must dominate both inputs")
	}
	if got := m.IDs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("IDs = %v", got)
	}
}

func TestVClockMissingEntryIsZero(t *testing.T) {
	a := NewVClock()
	b := NewVClock().Tick("x")
	if a.Compare(b) != Before {
		t.Fatal("empty clock must be before any ticked clock")
	}
	if b.Compare(a) != After {
		t.Fatal("symmetry broken")
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent"} {
		if o.String() != want {
			t.Errorf("%d = %q", o, o.String())
		}
	}
}

// --- generic CvRDT law checks ---

// ops applies n random operations to a replica set and returns the
// replicas (for counters / sets / registers separately below).

func TestGCounterLaws(t *testing.T) {
	mk := func(seed int64) *GCounter {
		rng := rand.New(rand.NewSource(seed))
		g := NewGCounter()
		for i := 0; i < 10; i++ {
			g.Inc(ReplicaID([]string{"a", "b", "c"}[rng.Intn(3)]), uint64(rng.Intn(5)))
		}
		return g
	}
	f := func(s1, s2, s3 int64) bool {
		a, b, c := mk(s1), mk(s2), mk(s3)
		// Commutativity.
		ab := a.Copy()
		ab.Merge(b)
		ba := b.Copy()
		ba.Merge(a)
		if !reflect.DeepEqual(ab.Counts, ba.Counts) {
			return false
		}
		// Associativity.
		abc1 := a.Copy()
		abc1.Merge(b)
		abc1.Merge(c)
		bc := b.Copy()
		bc.Merge(c)
		abc2 := a.Copy()
		abc2.Merge(bc)
		if !reflect.DeepEqual(abc1.Counts, abc2.Counts) {
			return false
		}
		// Idempotence.
		aa := a.Copy()
		aa.Merge(a)
		return reflect.DeepEqual(aa.Counts, a.Counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGCounterValue(t *testing.T) {
	g := NewGCounter()
	g.Inc("a", 3)
	g.Inc("b", 4)
	g.Inc("a", 1)
	if g.Value() != 8 {
		t.Fatalf("Value = %d", g.Value())
	}
}

func TestGCounterMergeIsMaxNotSum(t *testing.T) {
	a := NewGCounter()
	a.Inc("x", 5)
	b := a.Copy()
	a.Merge(b)
	a.Merge(b)
	if a.Value() != 5 {
		t.Fatalf("repeated merge inflated value to %d", a.Value())
	}
}

func TestPNCounter(t *testing.T) {
	p := NewPNCounter()
	p.Add("a", 10)
	p.Add("b", -3)
	p.Add("a", -2)
	if p.Value() != 5 {
		t.Fatalf("Value = %d", p.Value())
	}
	q := NewPNCounter()
	q.Add("c", 1)
	p.Merge(q)
	if p.Value() != 6 {
		t.Fatalf("merged Value = %d", p.Value())
	}
}

func TestPNCounterConvergence(t *testing.T) {
	// Two replicas apply disjoint ops, exchange states, converge.
	a, b := NewPNCounter(), NewPNCounter()
	a.Add("a", 7)
	b.Add("b", -4)
	a.Merge(b.Copy())
	b.Merge(a.Copy())
	if a.Value() != b.Value() || a.Value() != 3 {
		t.Fatalf("values: %d, %d", a.Value(), b.Value())
	}
}

func TestLWWRegister(t *testing.T) {
	l := NewLWWRegister()
	l.Set(10, "a", []byte("v1"))
	l.Set(5, "b", []byte("stale"))
	if string(l.Value()) != "v1" {
		t.Fatalf("stale write won: %q", l.Value())
	}
	l.Set(20, "b", []byte("v2"))
	if string(l.Value()) != "v2" {
		t.Fatalf("newer write lost: %q", l.Value())
	}
}

func TestLWWRegisterTieBreak(t *testing.T) {
	// Same timestamp: replica ID decides, identically on both sides.
	a, b := NewLWWRegister(), NewLWWRegister()
	a.Set(10, "a", []byte("from-a"))
	b.Set(10, "b", []byte("from-b"))
	a.Merge(b.Copy())
	b2 := b.Copy()
	b2.Merge(&LWWRegister{Val: []byte("from-a"), TS: 10, ID: "a"})
	if !bytes.Equal(a.Value(), b2.Value()) {
		t.Fatalf("tie-break diverged: %q vs %q", a.Value(), b2.Value())
	}
	if string(a.Value()) != "from-b" {
		t.Fatalf("higher replica ID should win ties, got %q", a.Value())
	}
}

func TestLWWLaws(t *testing.T) {
	f := func(ts1, ts2 int64, v1, v2 []byte) bool {
		a := &LWWRegister{Val: v1, TS: ts1, ID: "a"}
		b := &LWWRegister{Val: v2, TS: ts2, ID: "b"}
		ab := a.Copy()
		ab.Merge(b)
		ba := b.Copy()
		ba.Merge(a)
		if !bytes.Equal(ab.Value(), ba.Value()) || ab.TS != ba.TS || ab.ID != ba.ID {
			return false
		}
		aa := a.Copy()
		aa.Merge(a)
		return bytes.Equal(aa.Value(), a.Value())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMVRegisterConcurrentSiblings(t *testing.T) {
	a, b := NewMVRegister(), NewMVRegister()
	a.Set("a", []byte("A"))
	b.Set("b", []byte("B"))
	a.Merge(b)
	vals := a.Values()
	if len(vals) != 2 || string(vals[0]) != "A" || string(vals[1]) != "B" {
		t.Fatalf("siblings = %q", vals)
	}
	// A subsequent write resolves the conflict.
	a.Set("a", []byte("winner"))
	b.Merge(a)
	if vals := b.Values(); len(vals) != 1 || string(vals[0]) != "winner" {
		t.Fatalf("post-resolve = %q", vals)
	}
}

func TestMVRegisterDominatedVersionDropped(t *testing.T) {
	a := NewMVRegister()
	a.Set("a", []byte("v1"))
	old := a.Copy()
	a.Set("a", []byte("v2"))
	a.Merge(old)
	if vals := a.Values(); len(vals) != 1 || string(vals[0]) != "v2" {
		t.Fatalf("dominated version survived: %q", vals)
	}
}

func TestMVRegisterIdempotentMerge(t *testing.T) {
	a := NewMVRegister()
	a.Set("a", []byte("x"))
	before := a.Values()
	a.Merge(a.Copy())
	a.Merge(a.Copy())
	if !reflect.DeepEqual(a.Values(), before) {
		t.Fatalf("idempotence broken: %q", a.Values())
	}
}

func TestORSetAddRemove(t *testing.T) {
	s := NewORSet("a")
	s.Add("x")
	s.Add("y")
	if !s.Contains("x") || !s.Contains("y") || s.Contains("z") {
		t.Fatal("membership wrong")
	}
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("remove failed")
	}
	if got := s.Elements(); len(got) != 1 || got[0] != "y" {
		t.Fatalf("Elements = %v", got)
	}
	// Re-add after remove works (fresh tag).
	s.Add("x")
	if !s.Contains("x") {
		t.Fatal("re-add failed")
	}
}

func TestORSetAddWins(t *testing.T) {
	// a removes x while b concurrently re-adds it: add must win.
	a := NewORSet("a")
	a.Add("x")
	b := NewORSet("b")
	b.Merge(a)
	b.Add("x") // concurrent re-add with its own tag
	a.Remove("x")
	a.Merge(b)
	b.Merge(a)
	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add did not win over remove")
	}
}

func TestORSetConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	replicas := []*ORSet{NewORSet("a"), NewORSet("b"), NewORSet("c")}
	words := []string{"w0", "w1", "w2", "w3"}
	for i := 0; i < 200; i++ {
		r := replicas[rng.Intn(len(replicas))]
		w := words[rng.Intn(len(words))]
		if rng.Intn(3) == 0 {
			r.Remove(w)
		} else {
			r.Add(w)
		}
		if rng.Intn(4) == 0 {
			// Random pairwise state exchange.
			o := replicas[rng.Intn(len(replicas))]
			r.Merge(o)
		}
	}
	// Full sync: everyone merges everyone.
	for _, r := range replicas {
		for _, o := range replicas {
			r.Merge(o)
		}
	}
	want := replicas[0].Elements()
	for i, r := range replicas[1:] {
		if !reflect.DeepEqual(r.Elements(), want) {
			t.Fatalf("replica %d diverged: %v vs %v", i+1, r.Elements(), want)
		}
	}
}

func TestCountersConvergeUnderGossipStorm(t *testing.T) {
	// N replicas, random increments and random pairwise merges; after a
	// final all-pairs merge, every replica reports the same value equal
	// to the sum of all applied increments.
	const n = 5
	rng := rand.New(rand.NewSource(7))
	reps := make([]*PNCounter, n)
	ids := make([]ReplicaID, n)
	for i := range reps {
		reps[i] = NewPNCounter()
		ids[i] = ReplicaID(string(rune('a' + i)))
	}
	var want int64
	for i := 0; i < 500; i++ {
		j := rng.Intn(n)
		d := int64(rng.Intn(11) - 5)
		reps[j].Add(ids[j], d)
		want += d
		if rng.Intn(3) == 0 {
			reps[rng.Intn(n)].Merge(reps[rng.Intn(n)])
		}
	}
	for i := range reps {
		for j := range reps {
			reps[i].Merge(reps[j])
		}
	}
	for i, r := range reps {
		if r.Value() != want {
			t.Fatalf("replica %d = %d, want %d", i, r.Value(), want)
		}
	}
}
