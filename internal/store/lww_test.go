package store

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLWWRegister(t *testing.T) {
	var l lwwRegister
	l.set(10, "a", []byte("v1"))
	l.set(5, "b", []byte("stale"))
	if string(l.val) != "v1" {
		t.Fatalf("stale write won: %q", l.val)
	}
	l.set(20, "b", []byte("v2"))
	if string(l.val) != "v2" {
		t.Fatalf("newer write lost: %q", l.val)
	}
}

func TestLWWRegisterTieBreak(t *testing.T) {
	// Same timestamp: replica ID decides, identically on both sides.
	var a, b lwwRegister
	a.set(10, "a", []byte("from-a"))
	b.set(10, "b", []byte("from-b"))
	b2 := b
	a.merge(&b)
	b2.merge(&lwwRegister{val: []byte("from-a"), ts: 10, id: "a"})
	if !bytes.Equal(a.val, b2.val) {
		t.Fatalf("tie-break diverged: %q vs %q", a.val, b2.val)
	}
	if string(a.val) != "from-b" {
		t.Fatalf("higher replica ID should win ties, got %q", a.val)
	}
}

// TestLWWLaws checks that merge is a join: commutative, associative and
// idempotent. Writers share IDs and timestamps often enough that every
// tie-break rule is exercised.
func TestLWWLaws(t *testing.T) {
	reg := func(ts uint8, id bool, v []byte) lwwRegister {
		r := lwwRegister{val: v, ts: int64(ts % 4), id: "a"}
		if id {
			r.id = "b"
		}
		return r
	}
	merged := func(regs ...lwwRegister) lwwRegister {
		var out lwwRegister
		for i := range regs {
			out.merge(&regs[i])
		}
		return out
	}
	same := func(x, y lwwRegister) bool {
		return bytes.Equal(x.val, y.val) && x.ts == y.ts && x.id == y.id
	}
	f := func(ts1, ts2, ts3 uint8, id1, id2, id3 bool, v1, v2, v3 []byte) bool {
		a, b, c := reg(ts1, id1, v1), reg(ts2, id2, v2), reg(ts3, id3, v3)
		bc := merged(b, c)
		ab := merged(a, b)
		return same(ab, merged(b, a)) && // commutativity
			same(merged(ab, c), merged(a, bc)) && // associativity
			same(merged(a, a), merged(a)) // idempotence
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
