package rpl

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"iiotds/internal/link"
	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// NoParent is the parent value of a detached node.
const NoParent radio.NodeID = -1

// ErrNoRoute is returned when a datagram cannot be forwarded.
var ErrNoRoute = errors.New("rpl: no route to destination")

// DeliverFunc receives datagrams addressed to this node.
type DeliverFunc func(src radio.NodeID, payload []byte)

const (
	// minHopRankIncrease is the rank step per ideal hop, as in RPL.
	minHopRankIncrease uint16 = 256
	// parentHysteresis is how much better (in rank units) a candidate
	// must be to displace the preferred parent.
	parentHysteresis uint16 = 192
	// parentFailThreshold is the number of consecutive failed
	// transmissions to the parent before it is abandoned.
	parentFailThreshold = 3
	// maxRankIncrease bounds how far the node's rank may drift above
	// the lowest rank it held since joining (RPL's DAGMaxRankIncrease).
	// Exceeding it forces detach-and-rejoin, which is what breaks
	// count-to-infinity cycles fed by stale neighbor state.
	maxRankIncrease = 3 * minHopRankIncrease
	// routeLifetimeDAOs is how many DAO intervals a downward route
	// survives without refresh.
	routeLifetimeDAOs = 3
	// neighborStale is how long a candidate parent survives without a
	// DIO.
	neighborStale = 90 * time.Second
)

// Config parameterizes a Router.
type Config struct {
	// Trickle paces DIO beacons.
	Trickle TrickleConfig
	// DAOInterval is the downward-route refresh period (default 15 s).
	DAOInterval time.Duration
	// ParentProbeInterval is the parent liveness probe period
	// (default 10 s).
	ParentProbeInterval time.Duration
	// HopLimit is the initial datagram hop limit (default 32).
	HopLimit uint8
}

func (c *Config) applyDefaults() {
	c.Trickle.applyDefaults()
	if c.DAOInterval == 0 {
		c.DAOInterval = 15 * time.Second
	}
	if c.ParentProbeInterval == 0 {
		c.ParentProbeInterval = 10 * time.Second
	}
	if c.HopLimit == 0 {
		c.HopLimit = 32
	}
}

// candidate is a neighbor that advertised a rank in this node's DODAG
// version (a newer version clears them all): 16 bytes, held by value in
// a slice sorted by id.
type candidate struct {
	id        int32
	rank      uint16
	lastHeard sim.Time
}

// routeEntry is a downward route learnt from a DAO: 16 bytes, held by
// value in a slice sorted by target.
type routeEntry struct {
	target    int32
	nextHop   int32
	refreshed sim.Time
}

// Router is one node's RPL instance: it forms and maintains the DODAG,
// and routes lowpan datagrams upward (toward the border router) and
// downward (storing mode).
type Router struct {
	k     *sim.Kernel
	lnk   *link.Link
	adapt *lowpan.Adaptation
	cfg   Config
	reg   *metrics.Registry

	// The registry counters the router increments per event, resolved
	// on first use (count). The rare ones go to the registry each time.
	cDIOSent, cDAOSent, cProbeSent, cDAOFwd             *metrics.Counter
	cParentSwitches, cLinkDrops, cForwarded, cDelivered *metrics.Counter

	id      radio.NodeID
	isRoot  bool
	root    radio.NodeID
	version uint8
	rank    uint16
	parent  radio.NodeID

	candidates []candidate // sorted by id
	trickle    *Trickle
	downRoutes []routeEntry // sorted by target
	handlers   map[lowpan.Proto]DeliverFunc

	daoSeq      uint16
	netSeq      uint16
	parentFails int
	lowestRank  uint16

	daoTimer   *sim.Repeater
	probeTimer *sim.Repeater

	rnfd     *RNFD
	rootDead bool

	started  bool
	joinedAt sim.Time
	joined   bool

	fscratch []*netbuf.Buffer // reused frame slice for route()

	rec *trace.Recorder
}

// count increments the registry counter *c names, resolving it on
// first use: Registry.Counter takes a lock, sorts labels and looks up a
// map, too much to pay per event, and a counter the router never
// increments must stay unregistered.
func (r *Router) count(c **metrics.Counter, name string) {
	if *c == nil {
		*c = r.reg.Counter(name)
	}
	(*c).Inc()
}

// NewRouter creates a router for the node behind lnk. If isRoot is true
// the node acts as the DODAG root (the border router); root is the root's
// node ID (== lnk.ID() when isRoot).
func NewRouter(k *sim.Kernel, lnk *link.Link, isRoot bool, root radio.NodeID, cfg Config, reg *metrics.Registry) *Router {
	cfg.applyDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Router{
		k:        k,
		lnk:      lnk,
		adapt:    lowpan.NewAdaptation(lowpan.Config{}),
		cfg:      cfg,
		reg:      reg,
		id:       lnk.ID(),
		isRoot:   isRoot,
		root:     root,
		rank:     InfiniteRank,
		parent:   NoParent,
		handlers: make(map[lowpan.Proto]DeliverFunc),
	}
	if isRoot && root != r.id {
		panic(fmt.Sprintf("rpl: root router id %d != root %d", r.id, root))
	}
	// Datagrams fragment straight into the stack's pooled buffers and
	// ride down to the radio without another copy.
	r.adapt.UsePool(lnk.Buffers())
	tcfg := cfg.Trickle
	if isRoot {
		// The root's DIOs are the network's liveness signal (RNFD
		// sentinels watch for them), so the root never suppresses.
		tcfg.K = 1 << 30
	}
	r.trickle = NewTrickle(k, tcfg, r.sendDIO)
	// Handlers are registered once here (not in Start) so a crashed
	// node can be restarted without re-registering.
	lnk.Handle(link.ProtoRouting, r.onRouting)
	lnk.Handle(link.ProtoNet, r.onNet)
	return r
}

// Parent returns the preferred parent, or NoParent.
func (r *Router) Parent() radio.NodeID { return r.parent }

// IsRoot reports whether this node is the DODAG root.
func (r *Router) IsRoot() bool { return r.isRoot }

// Joined reports whether the node has ever joined the DODAG, and at what
// time it first did.
func (r *Router) Joined() (bool, sim.Time) { return r.joined, r.joinedAt }

// Partitioned reports whether the node currently has no path toward the
// root — the condition §V-C says the sensing layer must survive.
func (r *Router) Partitioned() bool { return !r.isRoot && r.parent == NoParent }

// RootDead reports whether this node has learned (via RNFD) that the
// root failed.
func (r *Router) RootDead() bool { return r.rootDead }

// SetRecorder installs the flight recorder routing events are traced
// into. RNFD (if enabled) shares the router's recorder.
func (r *Router) SetRecorder(rec *trace.Recorder) { r.rec = rec }

// Handle registers the delivery handler for proto.
func (r *Router) Handle(proto lowpan.Proto, h DeliverFunc) {
	if _, dup := r.handlers[proto]; dup {
		panic(fmt.Sprintf("rpl: handler for proto %d registered twice", proto))
	}
	r.handlers[proto] = h
}

// Start begins protocol timers. A router that was stopped (crashed) may
// be started again; use Restart to also clear volatile protocol state.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	if r.isRoot {
		if r.version == 0 {
			r.version = 1
		}
		r.rank = minHopRankIncrease
		r.joined = true
		r.joinedAt = r.k.Now()
	} else {
		// Solicit DIOs so joining does not wait a full trickle interval.
		r.lnk.Broadcast(link.ProtoRouting, []byte{byte(msgDIS)})
		r.daoTimer = r.k.Every(r.cfg.DAOInterval, r.cfg.DAOInterval/4, r.sendDAO)
		r.probeTimer = r.k.Every(r.cfg.ParentProbeInterval, r.cfg.ParentProbeInterval/4, r.probeParent)
	}
	r.trickle.Start()
}

// Stop halts all timers (e.g., when the node crashes).
func (r *Router) Stop() {
	if !r.started {
		return
	}
	r.started = false
	r.trickle.Stop()
	if r.daoTimer != nil {
		r.daoTimer.Stop()
	}
	if r.probeTimer != nil {
		r.probeTimer.Stop()
	}
}

// Restart models a crash-reboot: all volatile protocol state is lost and
// the protocol starts over. A rebooting root opens a new DODAG version so
// survivors of the old incarnation rejoin cleanly.
func (r *Router) Restart() {
	r.Stop()
	r.candidates = r.candidates[:0]
	r.downRoutes = r.downRoutes[:0]
	r.parent = NoParent
	r.rank = InfiniteRank
	r.parentFails = 0
	r.rootDead = false
	if r.isRoot {
		r.version++
	}
	r.Start()
}

// --- control plane ---

func (r *Router) sendDIO() {
	if !r.isRoot && r.rank == InfiniteRank && r.parent == NoParent && len(r.candidates) == 0 {
		// Nothing useful to say and nothing to poison.
		return
	}
	d := dio{Version: r.version, Rank: r.rank, Root: r.root}
	r.count(&r.cDIOSent, "rpl.dio_sent")
	r.rec.Emit(int32(r.id), trace.RPLDIOSent, int64(radio.Broadcast), int64(r.rank), 0, 0)
	r.lnk.Broadcast(link.ProtoRouting, d.encode())
}

func (r *Router) sendDIOTo(to radio.NodeID) {
	d := dio{Version: r.version, Rank: r.rank, Root: r.root}
	r.count(&r.cDIOSent, "rpl.dio_sent")
	r.rec.Emit(int32(r.id), trace.RPLDIOSent, int64(to), int64(r.rank), 0, 0)
	r.lnk.Send(to, link.ProtoRouting, d.encode(), nil)
}

func (r *Router) sendDAO() {
	if r.parent == NoParent {
		return
	}
	r.daoSeq++
	d := dao{Target: r.id, Seq: r.daoSeq}
	r.count(&r.cDAOSent, "rpl.dao_sent")
	r.rec.Emit(int32(r.id), trace.RPLDAOSent, int64(r.parent), int64(r.daoSeq), 0, 0)
	parent := r.parent
	r.lnk.Send(parent, link.ProtoRouting, d.encode(), func(ok bool) {
		r.noteParentTx(parent, ok)
	})
	r.sweepRoutes()
}

func (r *Router) probeParent() {
	if r.parent == NoParent {
		// Detached: keep soliciting.
		r.lnk.Broadcast(link.ProtoRouting, []byte{byte(msgDIS)})
		r.reg.Counter("rpl.dis_sent").Inc()
		return
	}
	parent := r.parent
	r.lnk.Send(parent, link.ProtoRouting, []byte{byte(msgDIS)}, func(ok bool) {
		r.noteParentTx(parent, ok)
	})
	r.count(&r.cProbeSent, "rpl.probe_sent")
}

// noteParentTx folds a transmission outcome toward the (then-)parent into
// failure detection. A single failure already worsened the link's ETX, so
// reselection runs immediately; only persistent failure evicts the
// candidate entirely.
func (r *Router) noteParentTx(parent radio.NodeID, ok bool) {
	if parent != r.parent {
		return // parent changed while in flight
	}
	if ok {
		r.parentFails = 0
		if r.rnfd != nil && parent == r.root {
			// A link-layer ACK from the root is liveness evidence.
			r.rnfd.rootHeard()
		}
		return
	}
	r.parentFails++
	if r.parentFails >= parentFailThreshold {
		r.reg.Counter("rpl.parent_lost").Inc()
		if i, ok := r.findCandidate(parent); ok {
			r.candidates = slices.Delete(r.candidates, i, i+1)
		}
		r.parentFails = 0
	}
	r.recomputeParent()
}

func (r *Router) onRouting(from radio.NodeID, raw []byte) {
	if len(raw) < 1 {
		return
	}
	switch msgType(raw[0]) {
	case msgDIO:
		d, err := decodeDIO(raw)
		if err == nil {
			r.onDIO(from, d)
		}
	case msgDAO:
		d, err := decodeDAO(raw)
		if err == nil {
			r.onDAO(from, d)
		}
	case msgDIS:
		// Answer solicitations with a unicast DIO after a short random
		// delay: every in-range node heard the same DIS, and answering
		// in unison just trades a solicitation for a collision storm.
		if r.rank != InfiniteRank {
			delay := time.Duration(r.k.Rand().Int63n(int64(300 * time.Millisecond)))
			r.k.Schedule(delay, func() {
				if r.started && r.rank != InfiniteRank {
					r.sendDIOTo(from)
				}
			})
		}
	case msgSuspect, msgVerdict:
		if r.rnfd != nil {
			r.rnfd.onMessage(from, raw)
		}
	}
}

func (r *Router) onDIO(from radio.NodeID, d dio) {
	if d.Root != r.root {
		return // different DODAG instance
	}
	if r.isRoot {
		return // the root ignores others' DIOs
	}
	if d.Version > r.version {
		// Global repair: restart participation under the new version.
		r.version = d.Version
		r.candidates = r.candidates[:0]
		r.setParent(NoParent, InfiniteRank)
		r.trickle.Reset()
	} else if d.Version < r.version {
		return // stale neighbor; our trickle DIO will update it
	}
	r.rec.Emit(int32(r.id), trace.RPLDIORecv, int64(from), int64(d.Rank), 0, 0)
	if r.rnfd != nil && from == r.root {
		r.rnfd.rootHeard()
	}
	i, known := r.findCandidate(from)
	if d.Rank == InfiniteRank {
		// Poison: the neighbor detached.
		if known {
			r.candidates = slices.Delete(r.candidates, i, i+1)
			if from == r.parent {
				r.trickle.Reset()
			}
			r.recomputeParent()
		}
		return
	}
	c := candidate{id: int32(from), rank: d.Rank, lastHeard: r.k.Now()}
	if known {
		r.candidates[i] = c
	} else {
		r.candidates = slices.Insert(r.candidates, i, c)
	}
	wasDetached := r.parent == NoParent
	r.recomputeParent()
	if wasDetached && r.parent != NoParent {
		r.trickle.Reset() // news: we joined; tell potential children fast
	} else {
		r.trickle.Hear()
	}
}

func (r *Router) onDAO(from radio.NodeID, d dao) {
	if r.parent == NoParent && !r.isRoot {
		return // cannot forward; drop
	}
	e := routeEntry{target: int32(d.Target), nextHop: int32(from), refreshed: r.k.Now()}
	if i, ok := r.findRoute(d.Target); ok {
		r.downRoutes[i] = e
	} else {
		r.downRoutes = slices.Insert(r.downRoutes, i, e)
	}
	if !r.isRoot {
		parent := r.parent
		r.lnk.Send(parent, link.ProtoRouting, d.encode(), func(ok bool) {
			r.noteParentTx(parent, ok)
		})
		r.count(&r.cDAOFwd, "rpl.dao_fwd")
	}
}

// rankStep converts a link ETX into a rank increment.
func (r *Router) rankStep(etx float64) uint16 {
	steps := int(etx + 0.5)
	if steps < 1 {
		steps = 1
	}
	if steps > 8 {
		steps = 8
	}
	return uint16(steps) * minHopRankIncrease
}

// findCandidate returns where id's candidate is, or would be inserted,
// and whether it is there.
func (r *Router) findCandidate(id radio.NodeID) (int, bool) {
	c, key := r.candidates, int32(id)
	lo, hi := 0, len(c)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); c[mid].id < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c) && c[lo].id == key
}

// recomputeParent runs MRHOF-style parent selection over fresh
// candidates, in one pass that also drops the stale ones.
func (r *Router) recomputeParent() {
	now := r.k.Now()
	bestID := NoParent
	bestRank := InfiniteRank
	attached := r.rank != InfiniteRank
	curRank32, haveCur := uint32(0), false
	kept := r.candidates[:0]
	for _, c := range r.candidates {
		if now-c.lastHeard > neighborStale {
			continue
		}
		kept = append(kept, c)
		id := radio.NodeID(c.id)
		// Loop avoidance (RPL's rank rule): while attached, only
		// neighbors with strictly lower rank are eligible as new
		// parents; picking an equal-or-deeper neighbor is how
		// count-to-infinity cycles form. The current parent stays
		// eligible so its advertised rank can float.
		if attached && id != r.parent && c.rank >= r.rank {
			continue
		}
		pr32 := uint32(c.rank) + uint32(r.rankStep(r.lnk.Neighbors().ETX(id)))
		if id == r.parent {
			curRank32, haveCur = pr32, true
		}
		// Candidates come in ascending id, so the first of equal ranks
		// is the lowest id: ties go to it.
		if pr32 < uint32(bestRank) {
			bestID, bestRank = id, uint16(pr32)
		}
	}
	r.candidates = kept
	if bestID == NoParent {
		r.detach()
		return
	}
	// Hysteresis: only switch away from a live parent for a clear
	// improvement; otherwise keep the parent and float our rank with
	// its advertisements.
	if haveCur && bestID != r.parent && uint32(bestRank)+uint32(parentHysteresis) >= curRank32 && curRank32 < uint32(InfiniteRank) {
		bestID, bestRank = r.parent, uint16(curRank32)
	}
	r.adoptRank(bestID, bestRank)
}

// detach leaves the DODAG: infinite rank, poison DIO, fast re-advertising.
func (r *Router) detach() {
	if r.parent == NoParent && r.rank == InfiniteRank {
		return
	}
	r.rec.Emit(int32(r.id), trace.RPLDetach, 0, 0, 0, 0)
	r.setParent(NoParent, InfiniteRank)
	// Poison immediately so children stop routing through us.
	r.sendDIO()
	r.trickle.Reset()
}

// adoptRank applies the selected (parent, rank), enforcing the
// maxRankIncrease damping rule.
func (r *Router) adoptRank(p radio.NodeID, rank uint16) {
	wasAttached := r.rank != InfiniteRank
	if wasAttached {
		if rank < r.lowestRank {
			r.lowestRank = rank
		}
		if uint32(rank) > uint32(r.lowestRank)+uint32(maxRankIncrease) {
			// Rank ran away: the RPL cure is to detach, poison, and
			// rejoin from fresh advertisements.
			r.reg.Counter("rpl.rank_runaway_detach").Inc()
			r.detach()
			return
		}
	} else {
		r.lowestRank = rank
	}
	old := r.rank
	r.setParent(p, rank)
	// A significant rank worsening is an inconsistency children should
	// hear about quickly.
	if wasAttached && rank > old && rank-old > minHopRankIncrease {
		r.trickle.Reset()
	}
}

func (r *Router) setParent(p radio.NodeID, rank uint16) {
	if p == r.parent && rank == r.rank {
		return
	}
	changed := p != r.parent
	old := r.parent
	r.parent = p
	r.rank = rank
	r.parentFails = 0
	if changed {
		r.count(&r.cParentSwitches, "rpl.parent_switches")
		r.rec.Emit(int32(r.id), trace.RPLParentSwitch, int64(old), int64(p), 0, 0)
		if p != NoParent {
			if !r.joined {
				r.joined = true
				r.joinedAt = r.k.Now()
			}
			// Announce ourselves via DAO soon (jittered: parent
			// switches cluster during repair, and synchronized DAO
			// bursts would collide).
			delay := time.Duration(r.k.Rand().Int63n(int64(200 * time.Millisecond)))
			r.k.Schedule(delay, func() {
				if r.started && r.parent == p {
					r.sendDAO()
				}
			})
		}
	}
}

// --- data plane ---

// SendTo routes payload to dst under proto. Local destinations deliver
// immediately. The error reflects only local route availability; delivery
// is best-effort, as in any IP network.
//
// Journey assignment happens here: a datagram sent while an inbound
// packet is being processed (a CoAP response, a forwarded reading)
// continues that packet's journey; otherwise it starts a fresh one.
func (r *Router) SendTo(dst radio.NodeID, proto lowpan.Proto, payload []byte) error {
	r.netSeq++
	js := r.lnk.Buffers().Journeys()
	jid := js.Current()
	if jid == 0 {
		jid = js.New()
	}
	d := &lowpan.Datagram{
		Src: r.id, Dst: dst, Proto: proto,
		HopLimit: r.cfg.HopLimit, Seq: r.netSeq,
		Payload: payload, Journey: jid,
	}
	return r.route(d)
}

// SendUp routes payload to the DODAG root.
func (r *Router) SendUp(proto lowpan.Proto, payload []byte) error {
	return r.SendTo(r.root, proto, payload)
}

func (r *Router) route(d *lowpan.Datagram) error {
	if d.Dst == r.id {
		r.deliver(d)
		return nil
	}
	next, ok := r.lookupRoute(d.Dst)
	if !ok && !r.isRoot && r.parent != NoParent {
		next = r.parent
	}
	if next == NoParent {
		r.reg.Counter("rpl.no_route_drops").Inc()
		r.rec.Emit(int32(r.id), trace.RPLNoRoute, int64(d.Src), int64(d.Dst), 0, d.Journey)
		return fmt.Errorf("%w: %d -> %d", ErrNoRoute, r.id, d.Dst)
	}
	frames, err := r.adapt.Encode(d, r.fscratch[:0])
	r.fscratch = frames[:0]
	if err != nil {
		return fmt.Errorf("rpl: encode datagram: %w", err)
	}
	for _, f := range frames {
		nh := next
		r.lnk.SendBuf(nh, link.ProtoNet, f, func(ok bool) {
			if nh == r.parent {
				r.noteParentTx(nh, ok)
			}
			if !ok {
				r.count(&r.cLinkDrops, "rpl.link_drops")
			}
		})
	}
	r.count(&r.cForwarded, "rpl.datagrams_forwarded")
	r.rec.Emit(int32(r.id), trace.RPLForward, int64(next), int64(d.Dst), 0, d.Journey)
	return nil
}

// findRoute returns where dst's route is, or would be inserted, and
// whether it is there.
func (r *Router) findRoute(dst radio.NodeID) (int, bool) {
	e, key := r.downRoutes, int32(dst)
	lo, hi := 0, len(e)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); e[mid].target < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(e) && e[lo].target == key
}

// lookupRoute returns the next hop of a live downward route to dst, and
// drops the route if it has expired.
func (r *Router) lookupRoute(dst radio.NodeID) (radio.NodeID, bool) {
	i, ok := r.findRoute(dst)
	if !ok {
		return NoParent, false
	}
	if r.k.Now()-r.downRoutes[i].refreshed > routeLifetimeDAOs*r.cfg.DAOInterval {
		r.downRoutes = slices.Delete(r.downRoutes, i, i+1)
		return NoParent, false
	}
	return radio.NodeID(r.downRoutes[i].nextHop), true
}

func (r *Router) sweepRoutes() {
	now := r.k.Now()
	r.downRoutes = slices.DeleteFunc(r.downRoutes, func(e routeEntry) bool {
		return now-e.refreshed > routeLifetimeDAOs*r.cfg.DAOInterval
	})
}

func (r *Router) onNet(from radio.NodeID, frame []byte) {
	d, err := r.adapt.Feed(r.k.Now(), from, frame)
	if err != nil {
		r.reg.Counter("rpl.malformed_frames").Inc()
		return
	}
	if d == nil {
		return // awaiting more fragments
	}
	// The MAC installed the inbound frame's journey as current before
	// invoking the receive chain; re-attach it to the reassembled
	// datagram (the ID is sideband metadata, never in the wire header).
	d.Journey = r.lnk.Buffers().Journeys().Current()
	if d.Dst == r.id {
		r.deliver(d)
		return
	}
	if d.HopLimit <= 1 {
		r.reg.Counter("rpl.hoplimit_drops").Inc()
		return
	}
	d.HopLimit--
	_ = r.route(d) // best-effort forwarding; drops counted inside
}

func (r *Router) deliver(d *lowpan.Datagram) {
	r.count(&r.cDelivered, "rpl.delivered")
	r.rec.Emit(int32(r.id), trace.RPLDeliver, int64(d.Src), int64(d.Proto), 0, d.Journey)
	if h, ok := r.handlers[d.Proto]; ok {
		// The handler runs in this packet's journey context so that a
		// locally delivered datagram (SendTo to self never touches the
		// MAC) still propagates its journey into synchronous replies.
		js := r.lnk.Buffers().Journeys()
		prev := js.SetCurrent(d.Journey)
		h(d.Src, d.Payload)
		js.SetCurrent(prev)
	}
}
