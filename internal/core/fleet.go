package core

import "iiotds/internal/radio"

// fleet is the part of a deployment that does not depend on how virtual
// time is driven: the nodes, the stack description they were built
// from, and every node-level control operation. Deployment (one kernel)
// and ShardedDeployment (one kernel per stripe) embed it and add their
// substrate, their builder and RunUntilConverged. The only thing the
// fleet asks of its owner is which medium a node is attached to.
//
// On a sharded deployment these methods touch several stripes, so they
// must run at a group barrier (the control timeline), like all
// cross-stripe mutation.
type fleet struct {
	Nodes []*Node // node ID order; index 0 is the border router
	stack Stack

	mediumOf func(id radio.NodeID) *radio.Medium
}

// Root returns the border-router node.
func (f *fleet) Root() *Node { return f.Nodes[0] }

// NodesByProfile returns the nodes instantiated from the named profile,
// in node-ID order.
func (f *fleet) NodesByProfile(name string) []*Node {
	var out []*Node
	for _, n := range f.Nodes {
		if n.profile.Name == name {
			out = append(out, n)
		}
	}
	return out
}

// Crash stops a node's whole stack (fault.Target).
func (f *fleet) Crash(id radio.NodeID) {
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
	f.mediumOf(id).SetDown(id, true)
}

// Recover restarts a crashed node with empty volatile state
// (fault.Target).
func (f *fleet) Recover(id radio.NodeID) {
	n := f.Nodes[int(id)]
	if n.up {
		return
	}
	n.up = true
	f.mediumOf(id).SetDown(id, false)
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
func (f *fleet) RetuneTenant(tenant string, ch uint8) {
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
func (f *fleet) Converged() bool {
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
func (f *fleet) ConvergedFraction() float64 {
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
