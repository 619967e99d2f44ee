package crdt

import (
	"bytes"
	"sort"

	"iiotds/internal/netbuf"
)

// LWWRegister is a last-writer-wins register. Timestamps are supplied by
// the caller (virtual time in the emulation); replica ID breaks ties so
// merge stays deterministic and commutative.
type LWWRegister struct {
	Val []byte
	TS  int64
	ID  ReplicaID
}

// NewLWWRegister returns an empty register.
func NewLWWRegister() *LWWRegister { return &LWWRegister{} }

// Set records a write at time ts by replica id.
func (l *LWWRegister) Set(ts int64, id ReplicaID, val []byte) {
	w := LWWRegister{Val: val, TS: ts, ID: id}
	if w.wins(l) {
		*l = w
	}
}

// wins reports whether w supersedes cur.
func (w *LWWRegister) wins(cur *LWWRegister) bool {
	if w.TS != cur.TS {
		return w.TS > cur.TS
	}
	if w.ID != cur.ID {
		return w.ID > cur.ID
	}
	return bytes.Compare(w.Val, cur.Val) > 0
}

// Value returns the current value.
func (l *LWWRegister) Value() []byte { return l.Val }

// Merge folds other into l.
func (l *LWWRegister) Merge(other *LWWRegister) {
	if other.wins(l) {
		*l = LWWRegister{Val: netbuf.CloneBytes(other.Val), TS: other.TS, ID: other.ID}
	}
}

// Copy returns an independent copy.
func (l *LWWRegister) Copy() *LWWRegister {
	return &LWWRegister{Val: netbuf.CloneBytes(l.Val), TS: l.TS, ID: l.ID}
}

// MVVersion is one concurrent version held by an MVRegister.
type MVVersion struct {
	Val   []byte
	Clock VClock
}

// MVRegister is a multi-value register: concurrent writes are all kept
// (as siblings) until a later write dominates them — the "decentralized
// resolution of potentially conflicting updates" of paper ref [24].
type MVRegister struct {
	Versions []MVVersion
}

// NewMVRegister returns an empty register.
func NewMVRegister() *MVRegister { return &MVRegister{} }

// Set writes val at replica id, superseding all currently visible
// versions.
func (m *MVRegister) Set(id ReplicaID, val []byte) {
	clock := NewVClock()
	for _, v := range m.Versions {
		clock.Merge(v.Clock)
	}
	clock.Tick(id)
	m.Versions = []MVVersion{{Val: netbuf.CloneBytes(val), Clock: clock}}
}

// Values returns the current concurrent values, sorted for determinism.
func (m *MVRegister) Values() [][]byte {
	out := make([][]byte, 0, len(m.Versions))
	for _, v := range m.Versions {
		out = append(out, v.Val)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// Merge folds other into m, keeping only causally maximal versions.
func (m *MVRegister) Merge(other *MVRegister) {
	all := make([]MVVersion, 0, len(m.Versions)+len(other.Versions))
	all = append(all, m.Versions...)
	for _, v := range other.Versions {
		all = append(all, MVVersion{Val: netbuf.CloneBytes(v.Val), Clock: v.Clock.Copy()})
	}
	var keep []MVVersion
	for i, v := range all {
		dominated := false
		for j, w := range all {
			if i == j {
				continue
			}
			switch v.Clock.Compare(w.Clock) {
			case Before:
				dominated = true
			case Equal:
				// Keep only the first of identical versions.
				if j < i {
					dominated = true
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			keep = append(keep, v)
		}
	}
	// Deduplicate identical (clock,value) pairs for determinism.
	sort.Slice(keep, func(i, j int) bool { return bytes.Compare(keep[i].Val, keep[j].Val) < 0 })
	m.Versions = keep
}

// Copy returns an independent copy.
func (m *MVRegister) Copy() *MVRegister {
	out := NewMVRegister()
	out.Merge(m)
	return out
}
