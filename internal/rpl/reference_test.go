package rpl

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"iiotds/internal/link"
	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// The reference model of a node's neighbour state: the link table's ETX
// estimates, the MAC's per-neighbour dedup sequence, the router's
// candidate parents and the root's downward routes, each held in a map
// keyed by neighbour, with the router's parent selection written over
// them in the plainest way. TestNeighbourStateReferenceParity drives it
// beside the real Link/MAC/Router and compares what a caller can see.

type refLink struct {
	success float64
	tx      uint64
}

type refCandidate struct {
	rank      uint16
	lastHeard sim.Time
}

type refRoute struct {
	nextHop   radio.NodeID
	refreshed sim.Time
}

// refNode is the sequential model of one non-root node (link table,
// dedup, candidates, parent and rank) plus the root's route table.
type refNode struct {
	k     *sim.Kernel
	links map[radio.NodeID]*refLink
	dedup map[radio.NodeID]uint16
	cand  map[radio.NodeID]*refCandidate

	root        radio.NodeID
	version     uint8
	rank        uint16
	lowestRank  uint16
	parent      radio.NodeID
	parentFails int

	routes        map[radio.NodeID]*refRoute // held by the root
	routeLifetime time.Duration
}

func newRefNode(k *sim.Kernel, root radio.NodeID, daoInterval time.Duration) *refNode {
	return &refNode{
		k: k, root: root, rank: InfiniteRank, parent: NoParent,
		links:         map[radio.NodeID]*refLink{},
		dedup:         map[radio.NodeID]uint16{},
		cand:          map[radio.NodeID]*refCandidate{},
		routes:        map[radio.NodeID]*refRoute{},
		routeLifetime: routeLifetimeDAOs * daoInterval,
	}
}

func (n *refNode) entry(id radio.NodeID) *refLink {
	e, ok := n.links[id]
	if !ok {
		e = &refLink{success: 0.7}
		n.links[id] = e
	}
	return e
}

func (n *refNode) recordTx(id radio.NodeID, ok bool) {
	e := n.entry(id)
	e.tx++
	sample := 0.0
	if ok {
		sample = 1.0
	}
	e.success = (1-0.2)*e.success + 0.2*sample
}

func (n *refNode) etx(id radio.NodeID) float64 {
	e, ok := n.links[id]
	if !ok || e.success <= 1.0/16 {
		return 16
	}
	return 1 / e.success
}

// receive is the MAC's duplicate test followed by the link's receive
// bookkeeping; it reports whether the frame reaches the upper layers.
func (n *refNode) receive(from radio.NodeID, seq uint16) bool {
	if last, seen := n.dedup[from]; seen && last == seq {
		return false
	}
	n.dedup[from] = seq
	n.entry(from)
	return true
}

func (n *refNode) forget(id radio.NodeID) {
	delete(n.links, id)
	delete(n.dedup, id)
}

// reboot is Link.Reboot followed by Router.Restart on the non-root node.
func (n *refNode) reboot() {
	n.links = map[radio.NodeID]*refLink{}
	n.dedup = map[radio.NodeID]uint16{}
	n.cand = map[radio.NodeID]*refCandidate{}
	n.parent, n.rank, n.parentFails = NoParent, InfiniteRank, 0
}

func (n *refNode) dio(from radio.NodeID, d dio) {
	if d.Root != n.root {
		return
	}
	if d.Version > n.version {
		n.version = d.Version
		n.cand = map[radio.NodeID]*refCandidate{}
		n.setParent(NoParent, InfiniteRank)
	} else if d.Version < n.version {
		return
	}
	if d.Rank == InfiniteRank {
		if _, was := n.cand[from]; was {
			delete(n.cand, from)
			n.recompute()
		}
		return
	}
	n.cand[from] = &refCandidate{rank: d.Rank, lastHeard: n.k.Now()}
	n.recompute()
}

func (n *refNode) noteParentTx(parent radio.NodeID, ok bool) {
	if parent != n.parent {
		return
	}
	if ok {
		n.parentFails = 0
		return
	}
	n.parentFails++
	if n.parentFails >= parentFailThreshold {
		delete(n.cand, parent)
		n.parentFails = 0
	}
	n.recompute()
}

func refRankStep(etx float64) uint16 {
	steps := int(etx + 0.5)
	steps = max(1, min(8, steps))
	return uint16(steps) * minHopRankIncrease
}

func (n *refNode) recompute() {
	now := n.k.Now()
	for id, c := range n.cand {
		if now-c.lastHeard > neighborStale {
			delete(n.cand, id)
		}
	}
	bestID, bestRank := NoParent, InfiniteRank
	attached := n.rank != InfiniteRank
	for id, c := range n.cand {
		if attached && id != n.parent && c.rank >= n.rank {
			continue
		}
		pr := uint32(c.rank) + uint32(refRankStep(n.etx(id)))
		if pr >= uint32(InfiniteRank) {
			continue
		}
		if uint16(pr) < bestRank || (uint16(pr) == bestRank && (bestID == NoParent || id < bestID)) {
			bestID, bestRank = id, uint16(pr)
		}
	}
	if bestID == NoParent {
		n.detach()
		return
	}
	if n.parent != NoParent && bestID != n.parent {
		if cur, ok := n.cand[n.parent]; ok {
			curRank := uint32(cur.rank) + uint32(refRankStep(n.etx(n.parent)))
			if uint32(bestRank)+uint32(parentHysteresis) >= curRank && curRank < uint32(InfiniteRank) {
				bestID, bestRank = n.parent, uint16(curRank)
			}
		}
	}
	n.adopt(bestID, bestRank)
}

func (n *refNode) detach() {
	if n.parent == NoParent && n.rank == InfiniteRank {
		return
	}
	n.setParent(NoParent, InfiniteRank)
}

func (n *refNode) adopt(p radio.NodeID, rank uint16) {
	if n.rank != InfiniteRank {
		n.lowestRank = min(n.lowestRank, rank)
		if uint32(rank) > uint32(n.lowestRank)+uint32(maxRankIncrease) {
			n.detach()
			return
		}
	} else {
		n.lowestRank = rank
	}
	n.setParent(p, rank)
}

func (n *refNode) setParent(p radio.NodeID, rank uint16) {
	if p == n.parent && rank == n.rank {
		return
	}
	n.parent, n.rank, n.parentFails = p, rank, 0
}

func (n *refNode) dao(from, target radio.NodeID) {
	n.routes[target] = &refRoute{nextHop: from, refreshed: n.k.Now()}
}

func (n *refNode) lookupRoute(dst radio.NodeID) (radio.NodeID, bool) {
	e, ok := n.routes[dst]
	if !ok {
		return NoParent, false
	}
	if n.k.Now()-e.refreshed > n.routeLifetime {
		delete(n.routes, dst)
		return NoParent, false
	}
	return e.nextHop, true
}

func (n *refNode) sweepRoutes() {
	for dst, e := range n.routes {
		if n.k.Now()-e.refreshed > n.routeLifetime {
			delete(n.routes, dst)
		}
	}
}

// parityRig is the real side: node 1 (CSMA, link, non-root router, never
// started, so no timer of its own sends anything) beside a sniffer radio
// that ACKs its unicasts on request, and the root, node 0, out of range,
// whose router holds the downward routes. Neighbours 2..maxNeighbour are
// not attached: their frames are injected into node 1's MAC.
type parityRig struct {
	k    *sim.Kernel
	m    *radio.Medium
	mc   *mac.CSMA
	lnk  *link.Link
	r    *Router
	root *Router

	ackNext  bool // the sniffer ACKs node 1's next unicast
	appHeard int  // ProtoApp payloads node 1's link delivered
}

const (
	parityNode   radio.NodeID = 1
	paritySniff  radio.NodeID = 100
	maxNeighbour radio.NodeID = 9
)

func newParityRig(seed int64) *parityRig {
	g := &parityRig{k: sim.New(seed)}
	reg := metrics.NewRegistry()
	g.m = radio.NewMedium(g.k, radio.DefaultParams(), reg)
	g.m.Attach(parityNode, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { g.mc.RadioReceive(f) }))
	g.m.Attach(paritySniff, radio.Position{X: 5}, radio.ReceiverFunc(g.sniff))
	g.m.SetListening(paritySniff, true)
	g.mc = mac.NewCSMA(g.m, parityNode, mac.CSMAConfig{})
	g.mc.Start()
	g.lnk = link.New(parityNode, g.mc)
	g.lnk.Handle(link.ProtoApp, func(radio.NodeID, []byte) { g.appHeard++ })
	g.r = NewRouter(g.k, g.lnk, false, 0, Config{}, reg)

	var rootMAC *mac.CSMA
	g.m.Attach(0, radio.Position{X: 10_000}, radio.ReceiverFunc(func(f radio.Frame) { rootMAC.RadioReceive(f) }))
	rootMAC = mac.NewCSMA(g.m, 0, mac.CSMAConfig{})
	g.root = NewRouter(g.k, link.New(0, rootMAC), true, 0, Config{}, reg)
	return g
}

// sniff answers node 1's unicast data frame with the addressee's ACK
// when ackNext is set, as a live neighbour would.
func (g *parityRig) sniff(f radio.Frame) {
	if f.From != parityNode || f.To == radio.Broadcast || !g.ackNext || f.Payload == nil {
		return
	}
	raw := f.Payload.Bytes()
	if len(raw) < 3 || mac.Kind(raw[0]) != mac.KindData {
		return
	}
	ack := []byte{byte(mac.KindAck), raw[1], raw[2]}
	to := f.To
	g.k.Schedule(100*time.Microsecond, func() { g.inject(to, parityNode, ack) })
}

// inject hands node 1's MAC a frame from a neighbour.
func (g *parityRig) inject(from, to radio.NodeID, raw []byte) {
	b := g.m.Buffers().Get()
	b.Append(raw)
	g.mc.RadioReceive(radio.Frame{From: from, To: to, Payload: b})
	b.Release()
}

// data builds a MAC data frame carrying body under proto.
func data(seq uint16, proto link.Protocol, body []byte) []byte {
	return append([]byte{byte(mac.KindData), byte(seq >> 8), byte(seq), byte(proto)}, body...)
}

// unicast sends one frame from node 1 to to, ACKed or not, and runs the
// kernel until the MAC gives up or completes.
func (g *parityRig) unicast(to radio.NodeID, proto link.Protocol, acked bool, done func(bool)) bool {
	g.ackNext = acked
	var got, called bool
	g.lnk.Send(to, proto, []byte{byte(msgDIS)}, func(ok bool) {
		got, called = ok, true
		if done != nil {
			done(ok)
		}
	})
	g.k.RunFor(time.Second)
	g.ackNext = false
	return called && got == acked
}

// txCountOf, ETX and lookupRoute are the test's only view into the real
// tables.
func txCountOf(l *link.Link, id radio.NodeID) (uint64, bool) {
	e, ok := l.Neighbors().Lookup(id)
	return uint64(e.TxCount), ok
}

// compare checks every id's ETX and table presence, the parent and rank,
// the root's route count (before any lookup expires an entry) and then
// every route.
func (g *parityRig) compare(ref *refNode) error {
	for id := radio.NodeID(0); id <= maxNeighbour+3; id++ {
		if got, want := g.lnk.Neighbors().ETX(id), ref.etx(id); got != want {
			return fmt.Errorf("ETX(%d) = %v, reference %v", id, got, want)
		}
		tx, ok := txCountOf(g.lnk, id)
		e, refOK := ref.links[id]
		if ok != refOK || (ok && tx != e.tx) {
			return fmt.Errorf("neighbour %d: present %v tx %d, reference present %v %+v", id, ok, tx, refOK, e)
		}
	}
	if g.r.Parent() != ref.parent || g.r.Rank() != ref.rank {
		return fmt.Errorf("parent %d rank %d, reference parent %d rank %d", g.r.Parent(), g.r.Rank(), ref.parent, ref.rank)
	}
	if got, want := g.root.RouteCount(), len(ref.routes); got != want {
		return fmt.Errorf("RouteCount = %d, reference %d", got, want)
	}
	for dst := radio.NodeID(0); dst <= maxNeighbour+3; dst++ {
		hop, ok := g.root.lookupRoute(dst)
		refHop, refOK := ref.lookupRoute(dst)
		if hop != refHop || ok != refOK {
			return fmt.Errorf("lookupRoute(%d) = %d,%v, reference %d,%v", dst, hop, ok, refHop, refOK)
		}
	}
	return nil
}

// pickKey draws one key of m, or false when m is empty. Keys are taken in
// id order so that a draw does not depend on map iteration.
func pickKey[V any](rng *rand.Rand, m map[radio.NodeID]V) (radio.NodeID, bool) {
	var keys []radio.NodeID
	for id := radio.NodeID(0); id <= maxNeighbour+3; id++ {
		if _, ok := m[id]; ok {
			keys = append(keys, id)
		}
	}
	if len(keys) == 0 {
		return 0, false
	}
	return keys[rng.Intn(len(keys))], true
}

// TestNeighbourStateReferenceParity drives drawn sequences of receives
// (new and known ids, duplicate sequence numbers), ACKed and failed
// unicasts, ForgetNeighbor, reboots, DIOs (version bumps, poison),
// candidates aged to exactly neighborStale and 1 ns past it, parent
// failures, DAO refreshes and route expiry at exactly the route lifetime
// against the real stack and the map-based reference, and after every
// step compares ETX per id, the MAC's fresh verdict, the selected parent
// and rank, lookupRoute and RouteCount.
func TestNeighbourStateReferenceParity(t *testing.T) {
	seeds, steps := 24, 400
	if testing.Short() {
		seeds = 6
	}
	ranks := []uint16{256, 512, 768, 1024, 1280, 2048}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := newParityRig(seed)
		ref := newRefNode(g.k, 0, g.root.cfg.DAOInterval)
		rng := rand.New(rand.NewSource(seed))
		neighbour := func() radio.NodeID { return 2 + radio.NodeID(rng.Intn(int(maxNeighbour-1))) }
		seqFor := func(from radio.NodeID) uint16 {
			if last, ok := ref.dedup[from]; ok && rng.Intn(3) == 0 {
				return last // an ARQ duplicate
			}
			return uint16(rng.Intn(4))
		}
		for step := 0; step < steps; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 14: // data frame from a new or known id
				from := neighbour()
				seq := seqFor(from)
				to := radio.Broadcast
				if rng.Intn(2) == 0 {
					to = parityNode
				}
				before := g.appHeard
				g.inject(from, to, data(seq, link.ProtoApp, []byte{1}))
				fresh, want := g.appHeard != before, ref.receive(from, seq)
				what = fmt.Sprintf("data from %d seq %d", from, seq)
				if fresh != want {
					t.Fatalf("seed %d step %d %s: fresh = %v, reference %v", seed, step, what, fresh, want)
				}
			case op < 40: // DIO: steady, version bump, stale version or poison
				from := neighbour()
				seq := seqFor(from)
				d := dio{Version: ref.version, Rank: ranks[rng.Intn(len(ranks))], Root: 0}
				switch v := rng.Intn(20); {
				case v == 0:
					d.Version++
				case v == 1 && d.Version > 0:
					d.Version--
				case v < 5:
					d.Rank = InfiniteRank
				}
				g.inject(from, radio.Broadcast, data(seq, link.ProtoRouting, d.encode()))
				if ref.receive(from, seq) {
					ref.dio(from, d)
				}
				what = fmt.Sprintf("DIO from %d seq %d %+v", from, seq, d)
			case op < 50: // ACKed or failed unicast to any neighbour
				to, acked := neighbour(), rng.Intn(3) > 0
				if !g.unicast(to, link.ProtoApp, acked, nil) {
					t.Fatalf("seed %d step %d: unicast to %d did not complete with ok=%v", seed, step, to, acked)
				}
				ref.recordTx(to, acked)
				what = fmt.Sprintf("unicast to %d acked=%v", to, acked)
			case op < 58: // a unicast to the parent, whose failures count
				p := g.r.Parent()
				if p == NoParent {
					continue
				}
				acked := rng.Intn(4) == 0
				if !g.unicast(p, link.ProtoRouting, acked, func(ok bool) { g.r.noteParentTx(p, ok) }) {
					t.Fatalf("seed %d step %d: parent unicast did not complete with ok=%v", seed, step, acked)
				}
				ref.recordTx(p, acked)
				ref.noteParentTx(p, acked)
				what = fmt.Sprintf("parent %d unicast acked=%v", p, acked)
			case op < 61:
				id := neighbour()
				g.lnk.ForgetNeighbor(id)
				ref.forget(id)
				what = fmt.Sprintf("ForgetNeighbor(%d)", id)
			case op < 62:
				g.lnk.Reboot()
				g.r.Restart()
				g.r.Stop()
				ref.reboot()
				what = "reboot"
			case op < 70:
				d := []time.Duration{time.Millisecond, 2 * time.Second, 20 * time.Second, 40 * time.Second}[rng.Intn(4)]
				g.k.RunFor(d)
				what = fmt.Sprintf("advance %v", d)
			case op < 78: // age a candidate (the parent, half the time) to exactly stale or 1 ns past
				id, ok := ref.parent, ref.parent != NoParent && rng.Intn(2) == 0
				if _, held := ref.cand[id]; !ok || !held {
					if id, ok = pickKey(rng, ref.cand); !ok {
						continue
					}
				}
				at := ref.cand[id].lastHeard + neighborStale + time.Duration(rng.Intn(2))
				if at > g.k.Now() {
					g.k.RunUntil(at)
				}
				g.r.recomputeParent()
				ref.recompute()
				what = fmt.Sprintf("age candidate %d to %v", id, at)
			case op < 90: // DAO to the root: a new route or a refresh
				from, target := neighbour(), 2+radio.NodeID(rng.Intn(int(maxNeighbour+1)))
				g.root.onRouting(from, dao{Target: target, Seq: uint16(step)}.encode())
				ref.dao(from, target)
				what = fmt.Sprintf("DAO %d via %d", target, from)
			case op < 96: // run to exactly a route's lifetime, or 1 ns past
				dst, ok := pickKey(rng, ref.routes)
				if !ok {
					continue
				}
				at := ref.routes[dst].refreshed + ref.routeLifetime + time.Duration(rng.Intn(2))
				if at > g.k.Now() {
					g.k.RunUntil(at)
				}
				what = fmt.Sprintf("age route %d to %v", dst, at)
			case op < 99:
				g.root.sweepRoutes()
				ref.sweepRoutes()
				what = "sweep routes"
			default:
				g.root.Restart()
				g.root.Stop()
				ref.routes = map[radio.NodeID]*refRoute{}
				what = "root restart"
			}
			if err := g.compare(ref); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
			}
		}
	}
}
