// Package radio emulates the shared lossy wireless medium of the
// sensing-and-actuation layer: distance-based packet reception, frame
// airtime, co-channel collisions, multiple channels (for the paper's
// §IV-C coexistence discussion), and per-frame energy accounting.
//
// The model is deliberately at the granularity the paper's claims need:
// loss grows with distance, concurrent co-channel transmissions audible at
// a receiver destroy each other (no capture effect), nodes only hear
// frames while their radio is listening on the right channel, and every
// transmitted or received byte costs energy.
package radio

import (
	"fmt"
	"math"
	"sort"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// NodeID identifies a radio endpoint on a medium.
type NodeID int

// Broadcast is the destination address for frames addressed to every
// listener in range.
const Broadcast NodeID = -1

// Position is a point in the deployment plane, in meters.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q in meters.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Frame is one link-layer transmission unit. Payload is opaque to the
// medium; Size is the on-air size in bytes (header overhead included), and
// governs airtime and energy.
//
// Payload ownership: Send borrows the caller's buffer and retains its
// own reference for the duration of the flight, so a MAC may keep (and
// later retransmit) its reference without re-encoding. On delivery
// every receiver gets an independent clone — copy-on-fanout — valid
// only for the duration of its RadioReceive callback; a receiver that
// mutates or retains the payload cannot corrupt what sibling receivers
// of a broadcast or the sender's retransmit queue observe.
type Frame struct {
	From    NodeID
	To      NodeID // Broadcast or a specific node
	Channel uint8
	Tenant  string // administrative domain, for §IV-C accounting
	Size    int    // bytes on air
	Payload *netbuf.Buffer
}

// Receiver is implemented by the link/MAC layer of each node to accept
// frames the medium delivers.
type Receiver interface {
	RadioReceive(f Frame)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(f Frame)

// RadioReceive calls f.
func (f ReceiverFunc) RadioReceive(fr Frame) { f(fr) }

var _ Receiver = ReceiverFunc(nil)

// LinkFilter can veto delivery between a pair of nodes; the fault package
// uses it to create partitions and asymmetric links. It must be pure: the
// medium may ask it about a link more or fewer times than it delivers.
type LinkFilter func(from, to NodeID) bool

// Params configures the propagation and PHY model.
type Params struct {
	// BitRate in bits per second (default 250 kbps, 802.15.4-class).
	BitRate float64
	// RangeReliable is the distance up to which PRR is PRRMax.
	RangeReliable float64
	// RangeMax is the distance beyond which PRR is zero; between
	// RangeReliable and RangeMax the PRR decays linearly. This gray
	// region reproduces the lossy links low-power deployments see.
	RangeMax float64
	// PRRMax is the packet reception ratio inside RangeReliable
	// (default 1.0; lower it to model a uniformly noisy site).
	PRRMax float64
	// TurnaroundOverhead is fixed per-frame on-air overhead (preamble,
	// SFD, CRC) in bytes.
	TurnaroundOverhead int
}

// DefaultParams models an indoor industrial 802.15.4 deployment.
func DefaultParams() Params {
	return Params{
		BitRate:            250_000,
		RangeReliable:      20,
		RangeMax:           35,
		PRRMax:             1.0,
		TurnaroundOverhead: 11, // 802.15.4 PHY+sync overhead
	}
}

type nodeState struct {
	id        NodeID
	pos       Position
	recv      Receiver
	air       metrics.Airtime // rx/tx time; the node's ledger adds it in on read
	channel   uint8
	listening bool
	down      bool
	// recognizes: the receiver ignores unicasts addressed to another
	// node (SetAddressRecognition), so complete need not hand them over.
	recognizes bool
	links      linkList // whom this node's frames reach
}

// link is one receiver a sender's frames reach, with the PRR its loss
// draw is taken against.
type link struct {
	n   *nodeState
	prr float64
}

// linkList is a sender's links: every other attached node its frames
// reach, in ascending ID order — by the pair's SetLinkPRR override when
// one is installed (none at PRR 0), else by distance strictly inside
// RangeMax of pos. It holds while gen is the medium's layoutGen and the
// sender still transmits from pos; SetLinkPRR voids it by zeroing gen.
// The slice keeps its capacity across rebuilds.
type linkList struct {
	gen   uint64
	pos   Position
	links []link
}

// delivery is one in-flight frame copy headed to one receiver. The
// resolved receiver pointer rides along so the fan-out and completion
// never go back through the node map.
type delivery struct {
	n         *nodeState
	corrupted bool
}

// transmission is one in-flight frame with all its deliveries. The
// structs are pooled per medium (with dels and takers capacity and the
// completion closure kept across reuse) so the steady-state send path
// does not allocate.
type transmission struct {
	frame    Frame
	start    sim.Time
	end      sim.Time
	srcPos   Position   // sender position at Send time
	src      *nodeState // local sender; nil for a foreign one (sharded.go)
	epoch    uint64     // medium layoutGen when the flight started
	stateGen uint64     // medium stateGen when the flight started
	dels     []delivery
	// clean counts the deliveries not (yet) corrupted; takers indexes
	// those whose receiver takes the frame rather than dropping it by
	// address, as launch found them. complete reads both (DESIGN.md §9).
	clean      int
	takers     []int32
	completeFn func() // prebuilt m.complete(tx) closure
}

// flight is a live co-channel transmission near a new one, with what the
// new one's collision checks read of it resolved once per launch.
type flight struct {
	tx   *transmission
	from NodeID
	pos  Position // the sender's current position
}

// Medium is the shared wireless channel set. It is single-threaded and
// must only be used from the owning simulation kernel's event callbacks.
type Medium struct {
	k      *sim.Kernel
	params Params
	nodes  map[NodeID]*nodeState
	// ordered mirrors nodes sorted by ID. Delivery fan-out must walk
	// nodes in a fixed order: each audible receiver consumes a PRR draw
	// from the kernel's single RNG, so iterating the map directly would
	// make loss patterns depend on Go's randomized map order and break
	// run-to-run determinism (DESIGN.md §5). A link list is one scan of
	// it, so it is in this order too.
	ordered []*nodeState
	active  []*transmission
	txFree  []*transmission // recycled transmission structs
	pool    *netbuf.Pool    // packet buffers for this medium's stack
	filter  LinkFilter
	energy  *metrics.EnergySet
	reg     *metrics.Registry
	rec     *trace.Recorder
	prrOver map[[2]NodeID]float64

	// layoutGen counts Attach and SetPosition calls. A link list holds
	// exact distances between its sender and every receiver, so any move
	// and any newcomer voids all of them; a static fleet builds each
	// sender's list once. It also dates flights for the collision
	// pruning below.
	layoutGen uint64
	// stateGen counts SetListening, SetDown, SetChannel and
	// SetAddressRecognition calls. While it has not moved since a flight
	// started, every receiver of the flight is still there and takes or
	// drops it as launch decided, so complete visits only the takers.
	stateGen uint64
	foreign  map[NodeID]*linkList // lists of senders other shards host
	linkBuf  []link               // collectLinks' scratch
	// Collision-check pruning (DESIGN.md §9). Two transmissions can only
	// interact when their senders are within 2·RangeMax: every receiver
	// sits strictly inside RangeMax of its sender whenever no PRR
	// override is installed. nearTx is the per-send scratch holding the
	// live co-channel transmissions that pass the bound; flights that
	// overlap a layoutGen step fall back to the unpruned loop (a moved
	// receiver may have left its sender's disk, voiding the bound).
	nearTx []flight
	brute  bool // rescan on every send, never prune (oracle/baseline)

	// announce, when set, observes every accepted transmission so a
	// sharded deployment can mirror border traffic into neighbor shards
	// (sharded.go). nil for a standalone medium.
	announce func(f Frame, pos Position, start, end sim.Time)

	// Hot-path counters resolved once at construction: Registry.Counter
	// is a mutex+map lookup, too slow for the per-frame path.
	cTxFrames   *metrics.Counter
	cTxBytes    *metrics.Counter
	cRxFrames   *metrics.Counter
	cCollisions *metrics.Counter
	cCollXTen   *metrics.Counter
	cDropLoss   *metrics.Counter
	cDropGone   *metrics.Counter
	cDropLate   *metrics.Counter
}

// NewMedium creates a medium on kernel k. reg may be nil, in which case a
// private registry is created.
func NewMedium(k *sim.Kernel, p Params, reg *metrics.Registry) *Medium {
	if p.BitRate <= 0 {
		panic("radio: BitRate must be positive")
	}
	if p.RangeMax < p.RangeReliable {
		panic("radio: RangeMax < RangeReliable")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Medium{
		k:         k,
		params:    p,
		nodes:     make(map[NodeID]*nodeState),
		pool:      netbuf.NewPool(),
		energy:    metrics.NewEnergySet(metrics.DefaultPowerProfile()),
		reg:       reg,
		prrOver:   make(map[[2]NodeID]float64),
		layoutGen: 1, // a zero linkList is stale
		foreign:   make(map[NodeID]*linkList),

		cTxFrames:   reg.Counter("radio.tx_frames"),
		cTxBytes:    reg.Counter("radio.tx_bytes"),
		cRxFrames:   reg.Counter("radio.rx_frames"),
		cCollisions: reg.Counter("radio.collisions"),
		cCollXTen:   reg.Counter("radio.collisions_cross_tenant"),
		cDropLoss:   reg.Counter("radio.dropped_loss"),
		cDropGone:   reg.Counter("radio.dropped_gone"),
		cDropLate:   reg.Counter("radio.foreign_late"),
	}
}

// Buffers returns the medium's packet-buffer pool. The whole stack of
// one node shares this pool, so buffers flow between layers without
// crossing pools (and, like the medium, it is single-threaded).
func (m *Medium) Buffers() *netbuf.Pool { return m.pool }

// Kernel returns the simulation kernel the medium runs on.
func (m *Medium) Kernel() *sim.Kernel { return m.k }

// Registry returns the metrics registry used for medium counters.
func (m *Medium) Registry() *metrics.Registry { return m.reg }

// SetRecorder installs the flight recorder the medium emits trace events
// into. nil (the default) disables tracing.
func (m *Medium) SetRecorder(rec *trace.Recorder) { m.rec = rec }

// Recorder returns the installed flight recorder (possibly nil).
func (m *Medium) Recorder() *trace.Recorder { return m.rec }

// Energy returns the per-node energy ledgers.
func (m *Medium) Energy() *metrics.EnergySet { return m.energy }

// Attach registers a node at pos with the given receiver. The node starts
// on channel 0 with its radio off.
func (m *Medium) Attach(id NodeID, pos Position, recv Receiver) {
	if _, dup := m.nodes[id]; dup {
		panic(fmt.Sprintf("radio: node %d attached twice", id))
	}
	if recv == nil {
		panic("radio: Attach with nil receiver")
	}
	n := &nodeState{id: id, pos: pos, recv: recv}
	m.energy.Ledger(int(id)).Link(&n.air)
	m.nodes[id] = n
	at := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].id > id })
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[at+1:], m.ordered[at:])
	m.ordered[at] = n
	m.layoutGen++
}

// SetPosition moves a node (e.g., a mobile asset tag). Any move voids
// every sender's link list (layoutGen).
func (m *Medium) SetPosition(id NodeID, pos Position) {
	m.mustNode(id).pos = pos
	m.layoutGen++
}

// SetBruteForce forces (true) or restores (false) the reference O(N)
// medium: every send rescans all nodes for its links instead of keeping
// the sender's link list, and collision loops run unpruned over every
// active transmission instead of the 2·RangeMax sender-distance cut.
// Both visit the same receivers in the same ID order and corrupt the
// same deliveries — the list and pruning invariants DESIGN.md §9 proves
// — so results are byte-identical; only wall-clock time differs. Tests
// use the brute path as the oracle and benchmarks as the baseline.
func (m *Medium) SetBruteForce(on bool) { m.brute = on }

// PositionOf returns a node's position.
func (m *Medium) PositionOf(id NodeID) Position { return m.mustNode(id).pos }

// SetChannel tunes a node's radio.
func (m *Medium) SetChannel(id NodeID, ch uint8) {
	m.mustNode(id).channel = ch
	m.stateGen++
}

// ChannelOf returns the channel a node is tuned to.
func (m *Medium) ChannelOf(id NodeID) uint8 { return m.mustNode(id).channel }

// SetListening turns a node's receiver on or off. Only listening nodes
// receive frames; idle-listening energy is charged by the MAC layer, which
// owns the duty-cycling policy.
func (m *Medium) SetListening(id NodeID, on bool) {
	m.mustNode(id).listening = on
	m.stateGen++
}

// SetAddressRecognition declares that the node's receiver does nothing
// with a unicast addressed to another node (802.15.4 hardware address
// recognition): the medium then counts and traces such a delivery as
// ever — the radio was busy with it — but does not hand it over.
func (m *Medium) SetAddressRecognition(id NodeID, on bool) {
	m.mustNode(id).recognizes = on
	m.stateGen++
}

// AddressRecognition reports whether the node declared it.
func (m *Medium) AddressRecognition(id NodeID) bool { return m.mustNode(id).recognizes }

// Listening reports whether a node's receiver is on.
func (m *Medium) Listening(id NodeID) bool { return m.mustNode(id).listening }

// SetDown marks a node crashed (true) or recovered (false). Down nodes
// neither send nor receive.
func (m *Medium) SetDown(id NodeID, down bool) {
	m.mustNode(id).down = down
	m.stateGen++
}

// Down reports whether the node is crashed.
func (m *Medium) Down(id NodeID) bool { return m.mustNode(id).down }

// SetLinkFilter installs a delivery veto; nil removes it.
func (m *Medium) SetLinkFilter(f LinkFilter) { m.filter = f }

// SetLinkPRR overrides the distance-based PRR for the directed link
// from->to with a fixed value in [0,1]. Use a negative value to remove the
// override. Only from's link list is voided.
func (m *Medium) SetLinkPRR(from, to NodeID, prr float64) {
	if prr > 1 {
		panic(fmt.Sprintf("radio: PRR %v > 1", prr))
	}
	if key := [2]NodeID{from, to}; prr < 0 {
		delete(m.prrOver, key)
	} else {
		m.prrOver[key] = prr
	}
	if n, ok := m.nodes[from]; ok {
		n.links.gen = 0
	}
	if ll := m.foreign[from]; ll != nil {
		ll.gen = 0
	}
}

// NodeIDs returns all attached node IDs in ascending order.
func (m *Medium) NodeIDs() []NodeID {
	ids := make([]NodeID, len(m.ordered))
	for i, n := range m.ordered {
		ids[i] = n.id
	}
	return ids
}

func (m *Medium) mustNode(id NodeID) *nodeState {
	n, ok := m.nodes[id]
	if !ok {
		panic(fmt.Sprintf("radio: unknown node %d", id))
	}
	return n
}

// PRR returns the packet reception ratio of the directed link from->to
// under the current model (override, else distance), ignoring collisions.
func (m *Medium) PRR(from, to NodeID) float64 {
	if prr, ok := m.prrOver[[2]NodeID{from, to}]; ok {
		return prr
	}
	d := m.mustNode(from).pos.Distance(m.mustNode(to).pos)
	return m.prrAtDistance(d)
}

func (m *Medium) prrAtDistance(d float64) float64 {
	p := m.params
	switch {
	case d <= p.RangeReliable:
		return p.PRRMax
	case d >= p.RangeMax:
		return 0
	default:
		return p.PRRMax * (p.RangeMax - d) / (p.RangeMax - p.RangeReliable)
	}
}

// Airtime returns the on-air duration of a frame of the given payload
// size in bytes.
func (m *Medium) Airtime(sizeBytes int) time.Duration {
	bits := float64(sizeBytes+m.params.TurnaroundOverhead) * 8
	return time.Duration(bits / m.params.BitRate * float64(time.Second))
}

// CarrierSense reports whether node id currently hears an ongoing
// co-channel transmission (for CSMA back-off decisions).
func (m *Medium) CarrierSense(id NodeID) bool {
	n := m.mustNode(id)
	now := m.k.Now()
	for _, tx := range m.active {
		if tx.end <= now || tx.frame.Channel != n.channel {
			continue
		}
		if m.txAudible(tx, n) {
			return true
		}
	}
	return false
}

// getTx pops a recycled transmission or creates one with its
// completion closure prebuilt (so Send schedules without allocating).
func (m *Medium) getTx() *transmission {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.completeFn = func() { m.complete(tx) }
	return tx
}

// putTx recycles a completed transmission, dropping its payload
// reference but keeping the dels capacity and closure.
func (m *Medium) putTx(tx *transmission) {
	tx.frame = Frame{}
	tx.srcPos = Position{}
	tx.src = nil
	clear(tx.dels)
	tx.dels = tx.dels[:0]
	tx.clean = 0
	tx.takers = tx.takers[:0]
	m.txFree = append(m.txFree, tx)
}

// audibleAt reports whether the signal of the sender `from` at pos
// carries to dst at all — the specification the fan-out and every
// collision check decide by: never the sender itself, nothing the filter
// vetoes, then the override (audible at PRR > 0), else distance strictly
// inside RangeMax. Audibility is what matters for interference;
// successful decoding additionally passes the PRR draw. Filters and PRR
// overrides are keyed by deployment-global IDs, so partitions and
// degraded links keep working for a sender another shard hosts.
func (m *Medium) audibleAt(from NodeID, pos Position, dst *nodeState) bool {
	if from == dst.id {
		return false
	}
	if m.filter != nil && !m.filter(from, dst.id) {
		return false
	}
	if len(m.prrOver) > 0 {
		if prr, ok := m.prrOver[[2]NodeID{from, dst.id}]; ok {
			return prr > 0
		}
	}
	return pos.Distance(dst.pos) < m.params.RangeMax
}

// txAudible reports whether an in-flight transmission is audible at dst,
// handling foreign senders that have no nodeState here. Local senders
// are judged at their current position (a node moved mid-flight carries
// its interference with it, as the flat scan always did); foreign ones
// at the announced position.
func (m *Medium) txAudible(tx *transmission, dst *nodeState) bool {
	pos := tx.srcPos
	if tx.src != nil {
		pos = tx.src.pos
	}
	return m.audibleAt(tx.frame.From, pos, dst)
}

// hears is audibleAt for the fan-out: plain says that no filter and no
// override is installed, so distance alone decides.
func (m *Medium) hears(from NodeID, pos Position, dst *nodeState, plain bool) bool {
	if !plain {
		return m.audibleAt(from, pos, dst)
	}
	return from != dst.id && pos.Distance(dst.pos) < m.params.RangeMax
}

// nearActive collects the live co-channel transmissions that could
// possibly interact with a frame sent from pos, into a reused scratch
// slice (valid until the next call), each with the position txAudible
// would judge it from. A transmission is skipped only when the
// 2·RangeMax sender-distance bound proves no shared audible point exists
// — and only when that bound actually holds: no PRR override installed
// (overrides are distance-free) and no node moved since the flight
// started (layoutGen match; a moved receiver may have left its sender's
// disk). Iterating the pruned list is therefore decision-for-decision
// identical to iterating m.active: everything dropped would have failed
// the audibility predicate anyway.
func (m *Medium) nearActive(pos Position, ch uint8, now sim.Time) []flight {
	near := m.nearTx[:0]
	limit := 2 * m.params.RangeMax
	prune := !m.brute && len(m.prrOver) == 0
	for _, other := range m.active {
		if other.end <= now || other.frame.Channel != ch {
			continue
		}
		if prune && other.epoch == m.layoutGen {
			// No movement since this flight started, so its send-time
			// position is current for the sender and every receiver.
			if pos.Distance(other.srcPos) >= limit {
				continue
			}
		}
		fl := flight{tx: other, from: other.frame.From, pos: other.srcPos}
		if other.src != nil {
			fl.pos = other.src.pos
		}
		near = append(near, fl)
	}
	m.nearTx = near
	return near
}

// collectLinks finds the links of a sender at pos (see linkList) by one
// scan of the ID-ordered node table, into the medium's scratch, valid
// until the next call. The override decides before distance, as in
// audibleAt; the filter is not asked, since it may change under a kept
// list.
func (m *Medium) collectLinks(from NodeID, pos Position) []link {
	buf := m.linkBuf[:0]
	over := len(m.prrOver) > 0
	for _, n := range m.ordered {
		if n.id == from {
			continue
		}
		if over {
			if prr, ok := m.prrOver[[2]NodeID{from, n.id}]; ok {
				if prr > 0 {
					buf = append(buf, link{n, prr})
				}
				continue
			}
		}
		if d := pos.Distance(n.pos); d < m.params.RangeMax {
			buf = append(buf, link{n, m.prrAtDistance(d)})
		}
	}
	m.linkBuf = buf
	return buf
}

// linksOf returns the link list of the sender from at pos: src's for a
// node attached here, else the one kept under the ID of a sender another
// shard hosts. A list is rebuilt on the first send after it went void —
// the layout moved, one of the sender's overrides changed, or a foreign
// sender announced another position — into its own storage, re-made
// exactly sized when outgrown. The brute-force medium keeps none and
// scans on every send.
func (m *Medium) linksOf(from NodeID, pos Position, src *nodeState) []link {
	if m.brute {
		return m.collectLinks(from, pos)
	}
	var ll *linkList
	if src != nil {
		ll = &src.links
	} else if ll = m.foreign[from]; ll == nil {
		ll = &linkList{}
		m.foreign[from] = ll
	}
	if ll.gen != m.layoutGen || ll.pos != pos {
		found := m.collectLinks(from, pos)
		if cap(ll.links) < len(found) {
			ll.links = make([]link, len(found))
		}
		ll.links = ll.links[:len(found)]
		copy(ll.links, found)
		ll.gen, ll.pos = m.layoutGen, pos
	}
	return ll.links
}

// Send transmits frame f from node f.From. Delivery callbacks fire at the
// end of the frame's airtime. The return value is the airtime, which the
// caller's MAC must respect before transmitting again.
//
// Send borrows f.Payload: it retains its own flight reference and
// releases it after delivery fan-out, so the caller's reference (e.g. a
// MAC's ARQ queue entry) stays valid for retransmission.
func (m *Medium) Send(f Frame) time.Duration {
	src := m.mustNode(f.From)
	if src.down {
		return 0
	}
	if f.Payload != nil {
		if n := f.Payload.Len(); f.Size < n {
			f.Size = n
		}
		f.Payload.Retain()
	}
	air := m.Airtime(f.Size)
	now := m.k.Now()
	m.cTxFrames.Inc()
	m.cTxBytes.Add(float64(f.Size))
	src.air.Tx += air
	m.rec.Emit(int32(f.From), trace.RadioTx, int64(f.To), int64(f.Size), 0, payloadJourney(f.Payload))

	tx := m.getTx()
	tx.frame = f
	tx.start, tx.end = now, now+air
	tx.srcPos = src.pos
	tx.src = src
	m.launch(tx)
	if m.announce != nil {
		m.announce(f, src.pos, now, now+air)
	}
	return air
}

// launch puts a prepared transmission on the air — the one delivery
// fan-out, shared by Send (local sender) and ApplyForeign (a sender
// hosted by another shard's medium). The caller has filled in frame,
// start/end, srcPos and, for a local sender, src; everything decided
// here is decided from those, so both kinds of sender collide, fade
// and deliver alike.
func (m *Medium) launch(tx *transmission) {
	f := tx.frame
	pos := tx.srcPos
	air := tx.end - tx.start
	tx.epoch, tx.stateGen = m.layoutGen, m.stateGen
	filter := m.filter
	plain := filter == nil && len(m.prrOver) == 0
	// Tallied here and added to the counters once: integers in a float64
	// sum exactly, in any grouping.
	var collisions, crossTenant, lost int

	// Mark collisions: any receiver that can hear both this frame and an
	// already-active co-channel frame decodes neither. Only the spatially
	// near transmissions (nearActive) can have such a receiver.
	near := m.nearActive(pos, f.Channel, m.k.Now())
	for _, other := range near {
		o := other.tx
		// Only a clean delivery can be marked, and o.clean counts them.
		for i := 0; i < len(o.dels) && o.clean > 0; i++ {
			d := &o.dels[i]
			if !d.corrupted && m.hears(f.From, pos, d.n, plain) {
				d.corrupted = true
				o.clean--
				collisions++
				if o.frame.Tenant != f.Tenant {
					crossTenant++
				}
				m.rec.Emit(int32(d.n.id), trace.RadioCollision, int64(other.from), int64(f.From), 0, payloadJourney(o.frame.Payload))
			}
		}
	}

	// The fan-out walks the sender's link list. What the list does not
	// remember, because it changes without the medium being told, is
	// checked here, per send: radio state, and the link filter.
	dels, takers := tx.dels, tx.takers
	rng, jid := m.k.Rand(), payloadJourney(f.Payload)
	for _, l := range m.linksOf(f.From, pos, tx.src) {
		n := l.n
		if n.down || !n.listening || n.channel != f.Channel {
			continue
		}
		if filter != nil && !filter(f.From, n.id) {
			continue
		}
		// The receiver's radio is busy for the whole frame either way.
		n.air.Rx += air
		dels = append(dels, delivery{n: n})
		d := &dels[len(dels)-1]
		// Collision with other concurrently active frames audible here.
		for _, other := range near {
			if m.hears(other.from, other.pos, n, plain) {
				d.corrupted = true
				collisions++
				if other.tx.frame.Tenant != f.Tenant {
					crossTenant++
				}
				m.rec.Emit(int32(n.id), trace.RadioCollision, int64(other.from), int64(f.From), 0, jid)
				break
			}
		}
		// Stochastic loss from link quality.
		if !d.corrupted && rng.Float64() >= l.prr {
			d.corrupted = true
			lost++
			m.rec.Emit(int32(n.id), trace.RadioLoss, int64(f.From), int64(f.Size), 0, jid)
		}
		if !d.corrupted {
			tx.clean++
			if f.To == Broadcast || f.To == n.id || !n.recognizes {
				takers = append(takers, int32(len(dels)-1))
			}
		}
	}
	tx.dels, tx.takers = dels, takers
	m.cCollisions.Add(float64(collisions))
	m.cCollXTen.Add(float64(crossTenant))
	m.cDropLoss.Add(float64(lost))

	m.active = append(m.active, tx)
	m.k.At(tx.end, tx.completeFn)
}

// payloadJourney reads the journey ID off a frame payload; control
// frames built without a payload buffer have no journey.
func payloadJourney(b *netbuf.Buffer) uint64 {
	if b == nil {
		return 0
	}
	return b.Journey()
}

// complete ends a flight: every delivery whose receiver is still up,
// listening and on the channel, and was not corrupted, is received —
// counted, traced, and handed over unless the receiver drops it by
// address. While no radio state has moved since launch (stateGen) and
// nothing is traced, that is the launch's verdict: every receiver is
// still there, rx is the clean count, and only the takers have anything
// to do, so the walk jumps from taker to taker. From the first hand-over
// that moves radio state — or from the start, when it had moved or a
// recorder is attached — it steps through the remaining deliveries one
// by one, taking each decision afresh.
func (m *Medium) complete(tx *transmission) {
	// Remove from active first: receive handlers re-enter Send (ACKs),
	// and a completed frame must not collide with them.
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	f := tx.frame
	rx, gone := tx.clean, 0
	next := 0 // the first delivery the stepping walk has to look at
	for t := 0; t < len(tx.takers) && m.stateGen == tx.stateGen && m.rec == nil; t++ {
		d := &tx.dels[tx.takers[t]]
		next = int(tx.takers[t]) + 1
		if !d.corrupted {
			handOver(f, d.n)
		}
	}
	if m.stateGen != tx.stateGen || m.rec != nil {
		for i := next; i < len(tx.dels); i++ {
			d := &tx.dels[i]
			n := d.n
			if n.down || !n.listening || n.channel != f.Channel {
				// Receiver went away mid-frame.
				gone++
				if !d.corrupted {
					rx--
				}
				continue
			}
			if d.corrupted {
				continue
			}
			m.rec.Emit(int32(n.id), trace.RadioDeliver, int64(f.From), int64(f.Size), 0, payloadJourney(f.Payload))
			if n.recognizes && f.To != n.id && f.To != Broadcast {
				// Received and dropped by address: the radio was busy for the
				// frame (charged in launch) but the receiver never sees it.
				continue
			}
			handOver(f, n)
		}
	}
	m.cDropGone.Add(float64(gone))
	m.cRxFrames.Add(float64(rx))
	if f.Payload != nil {
		f.Payload.Release() // flight reference taken in Send
	}
	m.putTx(tx)
}

// handOver delivers f to n's receiver. Copy-on-fanout: each receiver
// gets its own view of the payload, alive only for the callback;
// receivers that retain must copy.
func handOver(f Frame, n *nodeState) {
	if f.Payload == nil {
		n.recv.RadioReceive(f)
		return
	}
	view := f.Payload.Clone()
	df := f
	df.Payload = view
	n.recv.RadioReceive(df)
	view.Release()
}

// NeighborsOf returns the nodes id's frames reach (its link list),
// nearest first, ties by ID.
func (m *Medium) NeighborsOf(id NodeID) []NodeID {
	src := m.mustNode(id)
	type cand struct {
		id NodeID
		d  float64
	}
	var cands []cand
	for _, l := range m.linksOf(id, src.pos, src) {
		cands = append(cands, cand{l.n.id, src.pos.Distance(l.n.pos)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]NodeID, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}
