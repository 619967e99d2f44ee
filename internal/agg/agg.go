// Package agg implements TinyDB/TAG-style in-network aggregation (paper
// ref [31]): the root floods a declarative query; every node samples
// locally each epoch, merges its children's partial state records, and
// forwards one merged record to its parent. The funnel region around the
// border router then carries O(children) merged records per epoch instead
// of O(network) raw readings — the load relief §IV-B describes.
package agg

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"iiotds/internal/link"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/sim"
)

// ProtoAgg is the lowpan protocol number for partial state records.
const ProtoAgg lowpan.Proto = 4

// ProtoFlood is the link protocol number for query dissemination.
const ProtoFlood link.Protocol = 4

// Func is an aggregation function.
type Func int

// Supported aggregate functions.
const (
	Count Func = iota
	Sum
	Min
	Max
	Avg
)

// String names the function.
func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// Query is a continuous aggregate query over one attribute.
type Query struct {
	ID       uint16        `json:"id"`
	Fn       Func          `json:"fn"`
	Attr     string        `json:"attr"`
	Epoch    time.Duration `json:"epoch"`
	MaxDepth int           `json:"max_depth"` // scheduling horizon (tree depth bound)
}

// minSlot is the shortest depth slot, Epoch/(MaxDepth+2), a query may
// have: one PSR exchange between a node and its parent must fit in it
// at worst, which on the default CSMA MAC is
// (MaxRetries+1) × (airtime of the largest PSR frame + ACK timeout + backoff)
// with
//   - MaxRetries 3 (the mac.Config default): 4 attempts;
//   - the largest PSR frame one link-MTU fragment: 100 B of 6LoWPAN, the
//     link's protocol byte and the 3-byte MAC header, 104 B, which with
//     the radio's 11 B of PHY overhead take 3.68 ms at 250 kbit/s;
//   - the 5 ms ACK timeout (the mac.Config default);
//   - the widest backoff window, 32 slots of 320 µs: 10.24 ms.
//
// 4 × (3.68 + 5 + 10.24) ms = 75.68 ms, rounded up.
const minSlot = 76 * time.Millisecond

// Validate reports why q cannot run: an epoch that is not positive, a
// depth bound below 1, or a depth slot shorter than one worst-case PSR
// exchange (minSlot). RunQuery panics on such a query and a node drops
// it when it is flooded.
func (q Query) Validate() error {
	switch {
	case q.Epoch <= 0:
		return fmt.Errorf("agg: query epoch %v is not positive", q.Epoch)
	case q.MaxDepth < 1:
		return fmt.Errorf("agg: query depth bound %d is below 1", q.MaxDepth)
	case q.Epoch/minSlot-2 < time.Duration(q.MaxDepth):
		// Epoch/(MaxDepth+2) < minSlot, without forming MaxDepth+2.
		return fmt.Errorf("agg: query epoch %v over depth bound %d leaves slots shorter than %v", q.Epoch, q.MaxDepth, minSlot)
	}
	return nil
}

// PSR is a partial state record: the mergeable aggregate state.
type PSR struct {
	QueryID uint16  `json:"q"`
	EpochNo uint32  `json:"e"`
	Count   uint32  `json:"n"`
	Sum     float64 `json:"s"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// merge folds other into p.
func (p *PSR) merge(other PSR) {
	if other.Count == 0 {
		return
	}
	if p.Count == 0 {
		*p = other
		return
	}
	p.Count += other.Count
	p.Sum += other.Sum
	if other.Min < p.Min {
		p.Min = other.Min
	}
	if other.Max > p.Max {
		p.Max = other.Max
	}
}

// Result is the root's per-epoch answer.
type Result struct {
	Query   Query
	EpochNo uint32
	Count   uint32
	Value   float64
}

// value extracts the query's answer from a PSR.
func (q Query) value(p PSR) float64 {
	switch q.Fn {
	case Count:
		return float64(p.Count)
	case Sum:
		return p.Sum
	case Min:
		return p.Min
	case Max:
		return p.Max
	case Avg:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Sum / float64(p.Count)
	default:
		return math.NaN()
	}
}

// Sampler provides the node's local reading for an attribute; ok=false
// means the node does not produce this attribute.
type Sampler func(attr string) (value float64, ok bool)

// queryState is per-node per-query runtime state.
type queryState struct {
	q       Query
	depth   int
	pending PSR
	epochNo uint32
	timer   sim.Event
}

// floodMsg disseminates a query.
type floodMsg struct {
	Query Query `json:"query"`
	Depth int   `json:"depth"`
}

// Node is the aggregation service running on one mesh node.
type Node struct {
	k       *sim.Kernel
	r       *rpl.Router
	lnk     *link.Link
	sampler Sampler

	queries map[uint16]*queryState
	seenQ   map[uint16]bool

	// OnResult fires at the root once per epoch per query.
	OnResult func(res Result)
	// LateRecords counts PSRs that missed their epoch deadline.
	LateRecords int
}

// NewNode creates the aggregation service for the node behind r/lnk.
// sampler may be nil at the root.
func NewNode(k *sim.Kernel, r *rpl.Router, lnk *link.Link, sampler Sampler) *Node {
	n := &Node{
		k:       k,
		r:       r,
		lnk:     lnk,
		sampler: sampler,
		queries: make(map[uint16]*queryState),
		seenQ:   make(map[uint16]bool),
	}
	lnk.Handle(ProtoFlood, n.onFlood)
	r.Handle(ProtoAgg, n.onPSR)
	return n
}

// RunQuery (root only) starts disseminating and collecting a query.
func (n *Node) RunQuery(q Query) {
	if !n.r.IsRoot() {
		panic("agg: RunQuery on non-root")
	}
	if q.MaxDepth <= 0 {
		q.MaxDepth = 10
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	n.install(q, 0)
	n.flood(q, 0)
}

func (n *Node) flood(q Query, depth int) {
	data, err := json.Marshal(floodMsg{Query: q, Depth: depth})
	if err != nil {
		return
	}
	msg := make([]byte, 2+len(data))
	binary.BigEndian.PutUint16(msg[:2], q.ID)
	copy(msg[2:], data)
	n.lnk.Broadcast(ProtoFlood, msg)
}

func (n *Node) onFlood(from radio.NodeID, raw []byte) {
	if len(raw) < 2 {
		return
	}
	var fm floodMsg
	if err := json.Unmarshal(raw[2:], &fm); err != nil {
		return
	}
	// A query RunQuery would never have sent is dropped: a zero epoch
	// divides by zero in scheduleEpoch, a depth bound below 1 puts
	// slotOffset's denominator at zero, a slot shorter than a PSR
	// exchange fires faster than the mesh can carry, and a depth below 1
	// (a negative or overflowing count) is no hop count.
	depth := fm.Depth + 1
	if fm.Query.Validate() != nil || depth < 1 {
		return
	}
	if n.seenQ[fm.Query.ID] {
		return
	}
	n.install(fm.Query, depth)
	n.flood(fm.Query, depth)
}

func (n *Node) install(q Query, depth int) {
	n.seenQ[q.ID] = true
	if depth > q.MaxDepth {
		depth = q.MaxDepth
	}
	st := &queryState{q: q, depth: depth}
	n.queries[q.ID] = st
	n.scheduleEpoch(st)
}

// slotOffset returns when, within an epoch, this node transmits its
// merged PSR: deeper nodes earlier, so records cascade up one epoch.
func (st *queryState) slotOffset() time.Duration {
	frac := float64(st.q.MaxDepth-st.depth+1) / float64(st.q.MaxDepth+2)
	return time.Duration(float64(st.q.Epoch) * frac)
}

func (n *Node) scheduleEpoch(st *queryState) {
	epoch := st.q.Epoch
	now := n.k.Now()
	boundary := (now/epoch + 1) * epoch
	st.epochNo = uint32(boundary / epoch)
	at := boundary - epoch + st.slotOffset()
	if at <= now {
		at += epoch
		st.epochNo++
	}
	if at <= now {
		// Only an epoch or depth bound near the int64 limit overflows
		// here; firing again at this instant would never let the
		// kernel advance, so the query stops instead.
		delete(n.queries, st.q.ID)
		return
	}
	st.timer = n.k.At(at, func() { n.fireEpoch(st) })
}

func (n *Node) fireEpoch(st *queryState) {
	if _, live := n.queries[st.q.ID]; !live {
		return
	}
	// Fold in the local sample.
	if n.sampler != nil {
		if v, ok := n.sampler(st.q.Attr); ok {
			st.pending.merge(PSR{QueryID: st.q.ID, EpochNo: st.epochNo, Count: 1, Sum: v, Min: v, Max: v})
		}
	}
	if n.r.IsRoot() {
		if n.OnResult != nil && st.pending.Count > 0 {
			n.OnResult(Result{
				Query:   st.q,
				EpochNo: st.epochNo,
				Count:   st.pending.Count,
				Value:   st.q.value(st.pending),
			})
		}
	} else if st.pending.Count > 0 && !n.r.Partitioned() {
		st.pending.QueryID = st.q.ID
		st.pending.EpochNo = st.epochNo
		data, err := json.Marshal(st.pending)
		if err == nil {
			_ = n.r.SendTo(n.r.Parent(), ProtoAgg, data)
		}
	}
	st.pending = PSR{}
	n.scheduleEpoch(st)
}

func (n *Node) onPSR(src radio.NodeID, payload []byte) {
	var p PSR
	if err := json.Unmarshal(payload, &p); err != nil {
		return
	}
	st, ok := n.queries[p.QueryID]
	if !ok {
		return
	}
	// Accept records for the epoch we are currently accumulating; late
	// ones are folded forward rather than lost (TAG tolerates this
	// smearing; exactness is traded for load).
	if p.EpochNo < st.epochNo {
		n.LateRecords++
	}
	st.pending.merge(p)
}
