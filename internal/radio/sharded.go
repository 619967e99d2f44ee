// Cross-shard transmission mirroring for sharded deployments.
//
// When one deployment is split over several kernels (sim.ShardGroup),
// each shard owns a Medium holding only its own nodes. A transmission
// near a shard boundary must also be heard by the neighbor shard's
// nodes: the sending shard announces it (SetAnnounce hook, fired by
// Send), the group's barrier carries the Announcement across, and the
// receiving shard applies it as a "ghost" transmission — a foreign
// sender known only by ID and position, fanned out to local receivers
// with the local RNG, colliding symmetrically with local and other
// foreign frames.
//
// Timing is exact for deliveries: the group's lookahead is the minimum
// frame airtime, so the barrier that carries an announcement for a
// frame sent at t falls no later than t + airtime — always at or
// before the frame's own delivery instant — and the ghost's completion
// is scheduled at the original End. Only carrier-sense and collision
// visibility of cross-shard frames lags until the barrier; that lag is
// part of the sharded model (DESIGN.md §9) and is identical at every
// worker count, so results depend on the shard count (a model
// parameter) but never on how many OS threads execute them.
package radio

import "iiotds/internal/sim"

// Announcement describes a transmission to a medium that does not host
// the sender. Payload is a copy of the frame bytes (the sender-side
// netbuf is not shared across shards) in memory the announcer owns; it
// must stay unchanged until ApplyForeign has returned, which copies it
// again into the receiving medium's pool.
type Announcement struct {
	From    NodeID
	To      NodeID
	Pos     Position // sender position at Send time
	Channel uint8
	Tenant  string
	Size    int
	Start   sim.Time
	End     sim.Time
	Payload []byte // nil for payload-free control frames
}

// NewAnnouncement captures frame f sent from pos over [start, end] into
// an Announcement, copying the payload bytes out of the sender's pooled
// buffer onto the end of arena, which it returns grown. A caller that
// announces many frames reuses one arena and truncates it once their
// announcements have been applied; nil is a fine arena for one frame.
func NewAnnouncement(f Frame, pos Position, start, end sim.Time, arena []byte) (Announcement, []byte) {
	a := Announcement{
		From:    f.From,
		To:      f.To,
		Pos:     pos,
		Channel: f.Channel,
		Tenant:  f.Tenant,
		Size:    f.Size,
		Start:   start,
		End:     end,
	}
	if f.Payload != nil && f.Payload.Len() > 0 {
		off := len(arena)
		arena = append(arena, f.Payload.Bytes()...)
		a.Payload = arena[off:len(arena):len(arena)]
	}
	return a, arena
}

// SetAnnounce installs the hook Send fires for every accepted
// transmission (after local fan-out). The sharded deployment glue uses
// it to post announcements toward neighbor shards; nil removes it.
func (m *Medium) SetAnnounce(fn func(f Frame, pos Position, start, end sim.Time)) {
	m.announce = fn
}

// ApplyForeign applies an announced cross-shard transmission to this
// medium's nodes. It must run at a shard barrier (the group guarantees
// barrier time ≤ a.End). What is foreign about it is prepared here — a
// sender known only by ID and announced position, a pooled copy of the
// payload (journey IDs do not cross shards: the copy carries journey 0)
// — and the fan-out is Send's own (launch): the link list of the
// foreign sender at its announced position (kept under its ID, rebuilt
// when the announced position, the local layout or one of the sender's
// PRR overrides changes) in ascending
// ID order, loss drawn from THIS medium's kernel RNG, collisions both
// ways with local and foreign actives, completion at the original a.End.
func (m *Medium) ApplyForeign(a Announcement) {
	if a.End <= m.k.Now() {
		// The announcement arrived after the frame ended. Under the
		// group's lookahead discipline that is a scheduling bug, so the
		// lost frame is counted where the tests can see it.
		m.cDropLate.Inc()
		return
	}
	tx := m.getTx()
	tx.frame = Frame{From: a.From, To: a.To, Channel: a.Channel, Tenant: a.Tenant, Size: a.Size}
	if a.Payload != nil {
		b := m.pool.Get()
		b.Append(a.Payload)
		tx.frame.Payload = b // flight reference, released in complete()
	}
	tx.start, tx.end = a.Start, a.End
	tx.srcPos = a.Pos
	m.launch(tx)
}
