package core

import (
	"time"

	"iiotds/internal/fault"
	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// Fleet is the engine contract: what a run, a workload, a fault
// schedule or an invariant needs from a deployment, however its virtual
// time is driven. Deployment (one kernel) and ShardedDeployment (one
// kernel per stripe) embed it and add their substrate and builder; code
// written against *Fleet runs on both.
//
// On a sharded deployment whatever touches several stripes (Crash,
// Recover, the predicates, Counter) must run at a group barrier — on
// Sched — and whatever transmits, in an event on the sender's Kernel.
type Fleet struct {
	Nodes []*Node // node ID order; index 0 is the border router
	stack Stack

	sched    *sim.Kernel      // the timeline: the one kernel, or the shard group's control kernel
	runFor   func(d sim.Time) // the engine's RunFor
	ctl      fault.MediumCtl
	media    []*radio.Medium // one per stripe
	stripeOf []int           // node index -> stripe index
}

// Now returns the fleet's virtual time.
func (f *Fleet) Now() sim.Time { return f.sched.Now() }

// RunFor advances the fleet's virtual time by d.
func (f *Fleet) RunFor(d time.Duration) { f.runFor(d) }

// Sched is the timeline for fleet-wide callbacks (faults, episodes):
// the kernel, or the shard group's control kernel, whose callbacks run
// at barriers. Only RunFor advances it.
func (f *Fleet) Sched() *sim.Kernel { return f.sched }

// Every runs fn on Sched every d until the repeater is stopped: that
// kernel's Every(d, 0, fn). On stripes fn runs at a barrier, where
// reading every stripe is legal.
func (f *Fleet) Every(d time.Duration, fn func()) *sim.Repeater { return f.sched.Every(d, 0, fn) }

// Push is a running periodic uplink; see StartPush.
type Push struct {
	sent []int // per node, each written on its own kernel only
	reps []*sim.Repeater
}

// StartPush has each of nodes send payload(n) up the DODAG as proto
// every period (plus up to jitter), on its own kernel; repeaters are
// created in the order given. payload runs inside the node's event and
// returns the datagram's bytes — their length sets the airtime — or nil
// to sit this tick out.
func (f *Fleet) StartPush(nodes []*Node, proto lowpan.Proto, every, jitter time.Duration, payload func(n *Node) []byte) *Push {
	p := &Push{sent: make([]int, len(nodes))}
	for i, n := range nodes {
		p.reps = append(p.reps, f.Kernel(n.ID).Every(every, jitter, func() {
			if b := payload(n); b != nil {
				p.sent[i]++
				_ = n.Router.SendUp(proto, b)
			}
		}))
	}
	return p
}

// Sent returns how many datagrams the nodes have sent.
func (p *Push) Sent() int {
	total := 0
	for _, s := range p.sent {
		total += s
	}
	return total
}

// Stop ends the push.
func (p *Push) Stop() {
	for _, r := range p.reps {
		r.Stop()
	}
}

// Ctl is the fleet's medium control, fanned to the owning stripe(s).
func (f *Fleet) Ctl() fault.MediumCtl { return f.ctl }

// Medium returns the medium — and with it the kernel, registry and
// energy set — node id lives on.
func (f *Fleet) Medium(id radio.NodeID) *radio.Medium { return f.media[f.stripeOf[int(id)]] }

// Kernel returns the kernel node id's events run on.
func (f *Fleet) Kernel(id radio.NodeID) *sim.Kernel { return f.Medium(id).Kernel() }

// Kernels returns every kernel under the fleet, in stripe order.
func (f *Fleet) Kernels() []*sim.Kernel {
	ks := make([]*sim.Kernel, len(f.media))
	for i, m := range f.media {
		ks[i] = m.Kernel()
	}
	return ks
}

// Ledger returns node id's energy ledger.
func (f *Fleet) Ledger(id radio.NodeID) *metrics.EnergyLedger {
	return f.Medium(id).Energy().Ledger(int(id))
}

// Counter returns the named counter summed over every stripe's registry.
func (f *Fleet) Counter(name string) float64 {
	sum := 0.0
	for _, m := range f.media {
		sum += m.Registry().Counter(name).Value()
	}
	return sum
}

// Recorder returns the flight recorder: nil when tracing is disabled,
// and on the sharded engine.
func (f *Fleet) Recorder() *trace.Recorder { return f.media[0].Recorder() }

// Await advances virtual time a second at a time until cond holds or
// max elapses; it reports whether cond held and the time that took.
func (f *Fleet) Await(cond func() bool, max time.Duration) (bool, time.Duration) {
	start := f.Now()
	for f.Now() < start+max {
		if cond() {
			return true, f.Now() - start
		}
		f.RunFor(time.Second)
	}
	return cond(), f.Now() - start
}

// RunUntilConverged advances virtual time until the DODAG is complete or
// maxSim elapses; it reports success and the convergence time.
func (f *Fleet) RunUntilConverged(maxSim time.Duration) (bool, time.Duration) {
	return f.Await(f.Converged, maxSim)
}

// Root returns the border-router node.
func (f *Fleet) Root() *Node { return f.Nodes[0] }

// NodesByProfile returns the nodes instantiated from the named profile,
// in node-ID order.
func (f *Fleet) NodesByProfile(name string) []*Node {
	var out []*Node
	for _, n := range f.Nodes {
		if n.profile.Name == name {
			out = append(out, n)
		}
	}
	return out
}

// Crash stops a node's whole stack (fault.Target).
func (f *Fleet) Crash(id radio.NodeID) {
	n := f.Nodes[int(id)]
	if !n.up {
		return
	}
	n.up = false
	n.Router.Stop()
	if n.RNFD != nil {
		n.RNFD.Stop()
	}
	n.MAC.Stop()
	if n.CoAP != nil {
		// A crash loses exchange state: pending CONs stop retransmitting
		// and fail now instead of leaking in `pending` until a timeout
		// that would fire mid-reboot.
		n.CoAP.Reset()
	}
	f.Medium(id).SetDown(id, true)
}

// Recover restarts a crashed node with empty volatile state
// (fault.Target).
func (f *Fleet) Recover(id radio.NodeID) {
	n := f.Nodes[int(id)]
	if n.up {
		return
	}
	n.up = true
	f.Medium(id).SetDown(id, false)
	// The reboot clears the node's own volatile link/MAC state (fresh
	// sequence numbers, empty neighbor table) before the radio comes
	// back up...
	n.Link.Reboot()
	// ...and peers — on every stripe — must drop what they held about
	// the old incarnation: a retained dedup entry can match the rebooted
	// node's restarted sequence numbering and silently discard its first
	// unicast as an ARQ duplicate, and stale ETX estimates would steer
	// routing on link quality the reboot invalidated.
	for _, p := range f.Nodes {
		if p.ID != id {
			p.Link.ForgetNeighbor(id)
		}
	}
	n.MAC.Start()
	n.Router.Restart()
	if n.profile.RNFD != nil && id != 0 {
		n.RNFD = n.Router.AttachRNFD(*n.profile.RNFD)
	}
}

// RetuneTenant implements spectrum.Retuner: every node whose profile
// belongs to the named tenant moves to ch.
func (f *Fleet) RetuneTenant(tenant string, ch uint8) {
	for _, n := range f.Nodes {
		if n.profile.Tenant == tenant {
			n.MAC.Retune(ch)
		}
	}
}

// routable reports whether n has joined the DODAG and is not cut off
// from it.
func (n *Node) routable() bool {
	if n.Router.Partitioned() {
		return false
	}
	joined, _ := n.Router.Joined()
	return joined
}

// Converged reports whether every running node has joined the DODAG.
func (f *Fleet) Converged() bool {
	for _, n := range f.Nodes {
		if n.up && !n.routable() {
			return false
		}
	}
	return true
}

// ConvergedFraction returns the fraction of running nodes that have
// joined the DODAG — the city-scale metric: at 10k+ nodes the question
// is how much of the fleet is routable, not whether the last straggler
// made it.
func (f *Fleet) ConvergedFraction() float64 {
	up, joined := 0, 0
	for _, n := range f.Nodes {
		if !n.up {
			continue
		}
		up++
		if n.routable() {
			joined++
		}
	}
	if up == 0 {
		return 0
	}
	return float64(joined) / float64(up)
}

// Healthy reports whether every listed node is up and attached to the
// DODAG through a live parent — repaired, not merely joined: right
// after a crash, survivors still point at corpses.
func (f *Fleet) Healthy(ids ...radio.NodeID) bool {
	for _, id := range ids {
		n := f.Nodes[int(id)]
		p := n.Router.Parent()
		if !n.up || n.Router.Partitioned() || p == rpl.NoParent || !f.Nodes[int(p)].up {
			return false
		}
	}
	return true
}

// Looping reports whether the preferred-parent chain from node id has
// revisited a node: it reaches neither the root nor a detached node
// within the fleet size.
func (f *Fleet) Looping(id radio.NodeID) bool {
	for hops := 0; id != 0 && id != rpl.NoParent; hops++ {
		if hops > len(f.Nodes) {
			return true
		}
		id = f.Nodes[int(id)].Router.Parent()
	}
	return false
}

// LoopFree reports whether no node's parent chain is looping.
func (f *Fleet) LoopFree() bool {
	for i := range f.Nodes {
		if f.Looping(radio.NodeID(i)) {
			return false
		}
	}
	return true
}
