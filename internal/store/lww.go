package store

import (
	"bytes"

	"iiotds/internal/netbuf"
)

// lwwRegister is a last-writer-wins register, the state-based CRDT an
// AP replica keeps per KV key. Timestamps are supplied by the writer
// (virtual time in the emulation); the writer's ID, then the value,
// break ties, so merge is commutative, associative and idempotent and
// every replica that has seen the same writes holds the same value.
type lwwRegister struct {
	val []byte
	ts  int64
	id  string
}

// wins reports whether w supersedes cur.
func (w *lwwRegister) wins(cur *lwwRegister) bool {
	if w.ts != cur.ts {
		return w.ts > cur.ts
	}
	if w.id != cur.id {
		return w.id > cur.id
	}
	return bytes.Compare(w.val, cur.val) > 0
}

// set records a write of val at time ts by replica id. The register
// keeps its own copy of val: the caller may reuse its buffer.
func (l *lwwRegister) set(ts int64, id string, val []byte) {
	l.merge(&lwwRegister{val: val, ts: ts, id: id})
}

// merge folds other into l, copying other's value if it wins.
func (l *lwwRegister) merge(other *lwwRegister) {
	if other.wins(l) {
		*l = lwwRegister{val: netbuf.CloneBytes(other.val), ts: other.ts, id: other.id}
	}
}
