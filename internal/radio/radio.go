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
	"cmp"
	"fmt"
	"math"
	"slices"
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

// nodeState is one attached node's record. Its first 64 bytes hold all
// that launch reads or writes for a receiver: slot 0's hearing, the
// airtime it charges and the radio state it checks. A medium keeps its
// records side by side in chunks (Medium.newNode) and a record is three
// cache lines, so with the chunk aligned those 64 bytes are one line and
// a link visit misses at most once (DESIGN.md §9).
type nodeState struct {
	hear0     hearing         // what it hears on channel slot 0
	air       metrics.Airtime // rx/tx time; the node's ledger adds it in on read
	id        NodeID
	channel   uint8
	listening bool
	down      bool
	// recognizes: the receiver ignores unicasts addressed to another
	// node (SetAddressRecognition), so complete need not hand them over.
	recognizes bool

	pos   Position
	recv  Receiver
	links linkList  // whom this node's frames reach
	hearX []hearing // what it hears on channel slots 1, 2, ... (Medium.slots)
	_     [24]byte  // pads the record to 192 bytes
}

// hearOn returns n's hearing on channel slot s.
func (n *nodeState) hearOn(s int) *hearing {
	if s == 0 {
		return &n.hear0
	}
	return &n.hearX[s-1]
}

// nodeChunk is how many records newNode allocates at a time: 48 KiB,
// past the allocator's 32 KiB small-object limit, so a chunk gets pages
// of its own and starts on one, with no header in front of its first
// record.
const nodeChunk = 256

// hearing is what one node hears on one channel: until, the latest end
// among the live flights audible here, and the one clean copy the node
// is decoding — delivery del of flight rx, while the flight's end rxEnd
// is still ahead. Transmissions are pooled, but only completion at its
// end recycles one, so a future rxEnd also proves that rx is still the
// flight it was. Launch keeps it as it walks the sender's links
// (DESIGN.md §9).
type hearing struct {
	until sim.Time
	rxEnd sim.Time
	rx    *transmission
	del   int32
}

// A traced launch that may spoil a live flight's copy holds its trace
// events back until it has walked every link: the marks on older
// flights' copies go out first, sorted by flight (launch serial, the
// order of m.active) and delivery del, and the frame's own events after
// them in link order, as the scan of live flights emitted them. A mark
// is the spoiled delivery at node; an own event is a collision
// attributed to the flight sent by from, or a loss. The frame supplies
// everything else.
type mark struct {
	o    *transmission
	del  int32
	node int32
}

type own struct {
	node, from int32
	typ        trace.Type
}

// spoil corrupts the clean copy h holds, if its flight is still on the
// air, and returns that flight.
func (h *hearing) spoil(now sim.Time) *transmission {
	if h.rxEnd <= now {
		return nil
	}
	o := h.rx
	o.dels[h.del].corrupted = true
	o.clean--
	h.rxEnd = 0
	return o
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

// delivery is one in-flight frame copy headed to one receiver, node id
// (Medium.nodes). It holds no pointer, so launch appends it without a
// write barrier.
type delivery struct {
	id        int32
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
	serial   uint64     // launch serial; m.active is in its order
	stateGen uint64     // medium stateGen when the flight started
	dels     []delivery
	// clean counts the deliveries not (yet) corrupted; takers indexes
	// those whose receiver takes the frame rather than dropping it by
	// address, as launch found them. complete reads both (DESIGN.md §9).
	clean      int
	takers     []int32
	completeFn func() // prebuilt m.complete(tx) closure
}

// Medium is the shared wireless channel set. It is single-threaded and
// must only be used from the owning simulation kernel's event callbacks.
type Medium struct {
	k      *sim.Kernel
	params Params
	nodes  []*nodeState // indexed by NodeID; nil where none is attached
	// ordered holds the attached nodes sorted by ID. Delivery fan-out
	// must walk nodes in a fixed order: each audible receiver consumes a
	// PRR draw from the kernel's single RNG (DESIGN.md §5). A link list
	// is one scan of it, so it is in this order too.
	ordered []*nodeState
	chunk   []nodeState // newNode's current chunk of records
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
	// sender's list once.
	layoutGen uint64
	// stateGen counts SetListening, SetDown, SetChannel and
	// SetAddressRecognition calls. While it has not moved since a flight
	// started, every receiver of the flight is still there and takes or
	// drops it as launch decided, so complete visits only the takers.
	stateGen uint64
	foreign  map[NodeID]*linkList // lists of senders other shards host
	linkBuf  []link               // collectLinks' scratch
	brute    bool                 // rescan links on every send (oracle/baseline)

	// Hearing state (DESIGN.md §9). slots maps a channel to 1 + its slot
	// (nodeState.hearOn), 0 until a flight first uses it; nslots counts
	// them. stale says that who hears whom changed (Attach, SetPosition,
	// SetLinkFilter, SetLinkPRR) since every until was last right: the
	// next launch or CarrierSense rebuilds them from the live flights.
	slots  [256]uint16
	nslots int
	stale  bool
	serial uint64 // launches so far
	// tenant is the first launch's tenant; mixed says another one has
	// launched since, so collisions need attributing to a flight.
	tenant string
	mixed  bool
	// A traced launch's held-back events: marks on older flights, and
	// the frame's own.
	marks   []mark
	owns    []own
	holding bool // the launch under way holds its own events back

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
	if id < 0 {
		panic(fmt.Sprintf("radio: node id %d is negative", id))
	}
	if m.node(id) != nil {
		panic(fmt.Sprintf("radio: node %d attached twice", id))
	}
	if recv == nil {
		panic("radio: Attach with nil receiver")
	}
	n := m.newNode()
	n.id, n.pos, n.recv = id, pos, recv
	if m.nslots > 1 {
		n.hearX = make([]hearing, m.nslots-1)
	}
	m.energy.Ledger(int(id)).Link(&n.air)
	for int(id) >= len(m.nodes) {
		m.nodes = append(m.nodes, nil)
	}
	m.nodes[id] = n
	at := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].id > id })
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[at+1:], m.ordered[at:])
	m.ordered[at] = n
	m.layoutGen++
	m.stale = true
}

// newNode returns a zeroed record from the current chunk, starting a
// new chunk when it is full. A chunk never grows in place, so records do
// not move, and each starts on a cache line.
func (m *Medium) newNode() *nodeState {
	if len(m.chunk) == cap(m.chunk) {
		m.chunk = make([]nodeState, 0, nodeChunk)
	}
	m.chunk = m.chunk[:len(m.chunk)+1]
	return &m.chunk[len(m.chunk)-1]
}

// SetBruteForce forces (true) or restores (false) the reference O(N)
// medium: every send rescans all nodes for its links instead of keeping
// the sender's link list. Both visit the same receivers in the same ID
// order — the list invariant DESIGN.md §9 proves — so results are
// byte-identical; only wall-clock time differs. Tests use the brute
// path as the oracle and benchmarks as the baseline.
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

// SetDown marks a node crashed (true) or recovered (false). Down nodes
// neither send nor receive.
func (m *Medium) SetDown(id NodeID, down bool) {
	m.mustNode(id).down = down
	m.stateGen++
}

// Down reports whether the node is crashed.
func (m *Medium) Down(id NodeID) bool { return m.mustNode(id).down }

// SetLinkFilter installs a delivery veto; nil removes it.
func (m *Medium) SetLinkFilter(f LinkFilter) {
	m.filter = f
	m.stale = true
}

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
	if n := m.node(from); n != nil {
		n.links.gen = 0
	}
	if ll := m.foreign[from]; ll != nil {
		ll.gen = 0
	}
	m.stale = true
}

// node returns the record of node id, or nil if none is attached.
func (m *Medium) node(id NodeID) *nodeState {
	if uint(id) < uint(len(m.nodes)) {
		return m.nodes[id]
	}
	return nil
}

func (m *Medium) mustNode(id NodeID) *nodeState {
	n := m.node(id)
	if n == nil {
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
	if m.stale {
		m.rebuildHearing(now)
	}
	s := m.slots[n.channel]
	return s > 0 && n.hearOn(int(s)-1).until > now
}

// slotOf returns ch's slot, giving every node a hearing for it on the
// channel's first flight.
func (m *Medium) slotOf(ch uint8) int {
	if s := m.slots[ch]; s > 0 {
		return int(s) - 1
	}
	if m.nslots > 0 {
		for _, n := range m.ordered {
			n.hearX = append(n.hearX, hearing{})
		}
	}
	m.nslots++
	m.slots[ch] = uint16(m.nslots)
	return m.nslots - 1
}

// rebuildHearing sets every node's until afresh from the flights on the
// air, asking audibleAt at today's positions, filter and overrides
// (foreign senders at their announced positions). O(live flights × N),
// paid once per change of who hears whom. A held copy stays held: it is
// what it is whoever moved, and the next flight its node hears spoils it.
func (m *Medium) rebuildHearing(now sim.Time) {
	m.stale = false
	for _, n := range m.ordered {
		n.hear0.until = 0
		for i := range n.hearX {
			n.hearX[i].until = 0
		}
	}
	for _, o := range m.active {
		if o.end <= now {
			continue
		}
		s := int(m.slots[o.frame.Channel]) - 1
		for _, n := range m.ordered {
			if h := n.hearOn(s); o.end > h.until && m.txAudible(o, n) {
				h.until = o.end
			}
		}
	}
}

// firstHeard is the first flight in m.active, still on the air on
// channel ch, that n hears: the one a collision at n is attributed to.
func (m *Medium) firstHeard(n *nodeState, ch uint8, now sim.Time) *transmission {
	for _, o := range m.active {
		if o.end > now && o.frame.Channel == ch && m.txAudible(o, n) {
			return o
		}
	}
	return nil
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
//
// Collisions are decided in the same walk of the sender's link list,
// from each audible node's hearing on the frame's channel: the node
// loses the clean copy it was decoding, and its copy of this frame is
// corrupted too if it already hears a flight on the air (until > now).
func (m *Medium) launch(tx *transmission) {
	f := tx.frame
	air := tx.end - tx.start
	now := m.k.Now()
	m.serial++
	tx.serial, tx.stateGen = m.serial, m.stateGen
	if m.serial == 1 {
		m.tenant = f.Tenant
	} else if f.Tenant != m.tenant {
		m.mixed = true
	}
	if m.stale {
		m.rebuildHearing(now)
	}
	s := m.slotOf(f.Channel)
	links := m.linksOf(f.From, tx.srcPos, tx.src)
	filter := m.filter
	// Tallied here and added to the counters once: integers in a float64
	// sum exactly, in any grouping.
	var collisions, crossTenant, lost int

	// What the link list does not remember, because it changes without
	// the medium being told, is checked here, per send: the link filter
	// and radio state. Hearing does not depend on radio state.
	dels, takers := tx.dels, tx.takers
	attribute := m.rec != nil || m.mixed
	// Only a copy of a flight still on the air on this channel can be
	// spoiled; without one, no mark goes out and the frame's own events
	// need not wait for any.
	m.holding = m.rec != nil && m.liveOn(f.Channel, now)
	for _, l := range links {
		n := l.n
		if filter != nil && !filter(f.From, n.id) {
			continue
		}
		h := n.hearOn(s)
		if del, o := h.del, h.spoil(now); o != nil {
			collisions++
			if o.frame.Tenant != f.Tenant {
				crossTenant++
			}
			if m.holding {
				m.marks = append(m.marks, mark{o, del, int32(n.id)})
			}
		}
		heard := h.until > now
		if h.until < tx.end {
			h.until = tx.end
		}
		if n.down || !n.listening || n.channel != f.Channel {
			continue
		}
		// The receiver's radio is busy for the whole frame either way.
		n.air.Rx += air
		i := int32(len(dels))
		dels = append(dels, delivery{int32(n.id), heard})
		if heard {
			collisions++
			if attribute {
				o := m.firstHeard(n, f.Channel, now)
				if o.frame.Tenant != f.Tenant {
					crossTenant++
				}
				if m.rec != nil {
					m.hold(tx, own{int32(n.id), int32(o.frame.From), trace.RadioCollision})
				}
			}
			continue
		}
		// The loss draw's outcome is a coin toss for the branch predictor,
		// so both outcomes are written without a branch. spoil has left h
		// holding no copy; a lost one keeps it so (rxEnd 0) and adds no
		// taker.
		loss := m.k.Float64() >= l.prr // stochastic loss from link quality
		dels[len(dels)-1].corrupted = loss
		clean := b2i(!loss)
		lost += 1 - clean
		tx.clean += clean
		h.rx, h.rxEnd, h.del = tx, tx.end*sim.Time(clean), i
		takers = append(takers, i)
		takers = takers[:len(takers)-1+(clean&b2i(f.To == Broadcast || f.To == n.id || !n.recognizes))]
		if m.rec != nil && loss {
			m.hold(tx, own{node: int32(n.id), typ: trace.RadioLoss})
		}
	}
	tx.dels, tx.takers = dels, takers
	if m.holding {
		slices.SortFunc(m.marks, func(a, b mark) int {
			return cmp.Or(cmp.Compare(a.o.serial, b.o.serial), cmp.Compare(a.del, b.del))
		})
		for _, mk := range m.marks {
			m.rec.Emit(mk.node, trace.RadioCollision, int64(mk.o.frame.From), int64(f.From), 0, payloadJourney(mk.o.frame.Payload))
		}
		m.holding = false
		for _, e := range m.owns {
			m.hold(tx, e)
		}
		m.marks, m.owns = m.marks[:0], m.owns[:0]
	}
	m.cCollisions.Add(float64(collisions))
	m.cCollXTen.Add(float64(crossTenant))
	m.cDropLoss.Add(float64(lost))

	m.active = append(m.active, tx)
	m.k.At(tx.end, tx.completeFn)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hold emits one of tx's own trace events, or keeps it back for the end
// of the launch while m.holding (see mark).
func (m *Medium) hold(tx *transmission, e own) {
	switch f := &tx.frame; {
	case m.holding:
		m.owns = append(m.owns, e)
	case e.typ == trace.RadioCollision:
		m.rec.Emit(e.node, e.typ, int64(e.from), int64(f.From), 0, payloadJourney(f.Payload))
	default:
		m.rec.Emit(e.node, e.typ, int64(f.From), int64(f.Size), 0, payloadJourney(f.Payload))
	}
}

// liveOn reports whether a flight on channel ch is still on the air.
func (m *Medium) liveOn(ch uint8, now sim.Time) bool {
	for _, o := range m.active {
		if o.end > now && o.frame.Channel == ch {
			return true
		}
	}
	return false
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
			handOver(f, m.nodes[d.id])
		}
	}
	if m.stateGen != tx.stateGen || m.rec != nil {
		for i := next; i < len(tx.dels); i++ {
			d := &tx.dels[i]
			n := m.nodes[d.id]
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
