package link

import (
	"slices"

	"iiotds/internal/radio"
)

// etxAlpha is the EWMA weight given to a new transmission outcome.
const etxAlpha = 0.2

// priorSuccessRate seeds the estimator for untested links. Starting from
// a mildly skeptical prior (rather than trusting the first sample) keeps
// one lucky delivery on a marginal link from making it look perfect,
// which would otherwise cause routing churn over gray-region links.
const priorSuccessRate = 0.7

// maxETX caps the estimate for links that currently deliver nothing, so
// arithmetic over path costs stays finite.
const maxETX = 16.0

// Entry is the state tracked for one neighbor: 16 bytes, held by value.
type Entry struct {
	id int32
	// TxCount is the lifetime count of unicast outcomes folded in.
	TxCount uint32
	// SuccessRate is an EWMA of unicast delivery outcomes in [0,1].
	SuccessRate float64
}

// ETX returns the expected number of transmissions for one delivery over
// this link (1/SuccessRate), capped at maxETX.
func (e Entry) ETX() float64 {
	if e.SuccessRate <= 1/maxETX {
		return maxETX
	}
	return 1 / e.SuccessRate
}

// Table tracks link-quality state per neighbor: one Entry per neighbor
// heard, sorted by ID and found by binary search. It is not safe for
// concurrent use; the simulation is single-threaded. The zero Table is
// empty and ready to use.
type Table struct {
	entries []Entry
}

// find returns where id's entry is, or would be inserted, and whether it
// is there.
func (t *Table) find(id radio.NodeID) (int, bool) {
	e, key := t.entries, int32(id)
	lo, hi := 0, len(e)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); e[mid].id < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(e) && e[lo].id == key
}

// get returns id's entry, creating it at the prior. The pointer is valid
// until the next insertion.
func (t *Table) get(id radio.NodeID) *Entry {
	i, ok := t.find(id)
	if !ok {
		t.entries = slices.Insert(t.entries, i, Entry{id: int32(id), SuccessRate: priorSuccessRate})
	}
	return &t.entries[i]
}

// RecordTx folds a unicast outcome into the neighbor's estimate.
func (t *Table) RecordTx(id radio.NodeID, ok bool) {
	e := t.get(id)
	e.TxCount++
	sample := 0.0
	if ok {
		sample = 1.0
	}
	e.SuccessRate = (1-etxAlpha)*e.SuccessRate + etxAlpha*sample
}

// RecordRx notes that a frame was heard from the neighbor.
func (t *Table) RecordRx(id radio.NodeID) { t.get(id) }

// Lookup returns a copy of the entry for id, and whether the neighbor is
// known.
func (t *Table) Lookup(id radio.NodeID) (Entry, bool) {
	if i, ok := t.find(id); ok {
		return t.entries[i], true
	}
	return Entry{}, false
}

// ETX returns the ETX toward id; unknown neighbors cost maxETX.
func (t *Table) ETX(id radio.NodeID) float64 {
	if i, ok := t.find(id); ok {
		return t.entries[i].ETX()
	}
	return maxETX
}

// Forget drops a neighbor (e.g., after prolonged silence).
func (t *Table) Forget(id radio.NodeID) {
	if i, ok := t.find(id); ok {
		t.entries = slices.Delete(t.entries, i, i+1)
	}
}
