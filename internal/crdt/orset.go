package crdt

import (
	"fmt"
	"sort"
)

// ORSet is an observed-remove set: each Add creates a unique tag; Remove
// tombstones exactly the tags observed at the removing replica, so a
// concurrent Add always survives a Remove (add-wins semantics).
type ORSet struct {
	// Adds maps element -> live tags.
	Adds map[string]map[string]bool
	// Tombs is the set of removed tags.
	Tombs map[string]bool
	// NextTag is the per-replica tag counter.
	NextTag uint64
	// ID is this replica's identity for tag generation.
	ID ReplicaID
}

// NewORSet returns an empty set owned by replica id.
func NewORSet(id ReplicaID) *ORSet {
	return &ORSet{
		Adds:  make(map[string]map[string]bool),
		Tombs: make(map[string]bool),
		ID:    id,
	}
}

// Add inserts elem.
func (s *ORSet) Add(elem string) {
	s.NextTag++
	tag := fmt.Sprintf("%s#%d", s.ID, s.NextTag)
	if s.Adds[elem] == nil {
		s.Adds[elem] = make(map[string]bool)
	}
	s.Adds[elem][tag] = true
}

// Remove deletes elem by tombstoning every tag currently observed here.
func (s *ORSet) Remove(elem string) {
	for tag := range s.Adds[elem] {
		s.Tombs[tag] = true
	}
}

// Contains reports membership: some live (non-tombstoned) tag exists.
func (s *ORSet) Contains(elem string) bool {
	for tag := range s.Adds[elem] {
		if !s.Tombs[tag] {
			return true
		}
	}
	return false
}

// Elements returns the members, sorted.
func (s *ORSet) Elements() []string {
	var out []string
	for elem := range s.Adds {
		if s.Contains(elem) {
			out = append(out, elem)
		}
	}
	sort.Strings(out)
	return out
}

// Merge folds other into s (union of adds and tombstones).
func (s *ORSet) Merge(other *ORSet) {
	for elem, tags := range other.Adds {
		if s.Adds[elem] == nil {
			s.Adds[elem] = make(map[string]bool)
		}
		for tag := range tags {
			s.Adds[elem][tag] = true
		}
	}
	for tag := range other.Tombs {
		s.Tombs[tag] = true
	}
}

// Copy returns an independent copy keeping this replica's identity.
func (s *ORSet) Copy() *ORSet {
	out := NewORSet(s.ID)
	out.NextTag = s.NextTag
	out.Merge(s)
	return out
}
