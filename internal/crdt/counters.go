package crdt

// GCounter is a grow-only counter: each replica increments its own
// component; the value is the sum and Merge is pointwise max.
type GCounter struct {
	Counts map[ReplicaID]uint64
}

// NewGCounter returns a zero counter.
func NewGCounter() *GCounter {
	return &GCounter{Counts: make(map[ReplicaID]uint64)}
}

// Inc adds d (must be non-negative deltas expressed as uint) to id's
// component.
func (g *GCounter) Inc(id ReplicaID, d uint64) {
	if d == 0 {
		return // avoid zero-valued entries, which Merge never carries
	}
	if g.Counts == nil {
		g.Counts = make(map[ReplicaID]uint64)
	}
	g.Counts[id] += d
}

// Value returns the counter total.
func (g *GCounter) Value() uint64 {
	var sum uint64
	for _, n := range g.Counts {
		sum += n
	}
	return sum
}

// Merge folds other into g (pointwise max).
func (g *GCounter) Merge(other *GCounter) {
	if g.Counts == nil {
		g.Counts = make(map[ReplicaID]uint64)
	}
	for k, n := range other.Counts {
		if n > g.Counts[k] {
			g.Counts[k] = n
		}
	}
}

// Copy returns an independent copy.
func (g *GCounter) Copy() *GCounter {
	out := NewGCounter()
	out.Merge(g)
	return out
}

// PNCounter supports increments and decrements as two GCounters.
type PNCounter struct {
	Pos *GCounter
	Neg *GCounter
}

// NewPNCounter returns a zero counter.
func NewPNCounter() *PNCounter {
	return &PNCounter{Pos: NewGCounter(), Neg: NewGCounter()}
}

// Add applies a positive or negative delta on behalf of id.
func (p *PNCounter) Add(id ReplicaID, d int64) {
	if d >= 0 {
		p.Pos.Inc(id, uint64(d))
	} else {
		p.Neg.Inc(id, uint64(-d))
	}
}

// Value returns the net count.
func (p *PNCounter) Value() int64 {
	return int64(p.Pos.Value()) - int64(p.Neg.Value())
}

// Merge folds other into p.
func (p *PNCounter) Merge(other *PNCounter) {
	p.Pos.Merge(other.Pos)
	p.Neg.Merge(other.Neg)
}

// Copy returns an independent copy.
func (p *PNCounter) Copy() *PNCounter {
	out := NewPNCounter()
	out.Merge(p)
	return out
}
