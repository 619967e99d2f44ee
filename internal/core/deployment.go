// Package core is the middleware that assembles the paper's three-tier
// architecture (Fig. 1) into a running system:
//
//   - sensing-and-actuation layer: emulated nodes, each with a radio,
//     a MAC (CSMA or LPL), a link layer, an RPL router, the aggregation
//     service, and a CoAP endpoint reachable over the mesh;
//   - application-logic layer: whatever rules the application
//     subscribes through the border router's observe gateway
//     (Backend.Observe) or runs over stored series (Backend.Store);
//   - data-storage layer: a sharded, replicated time-series store.
//
// A Deployment owns the sensing layer and exposes the operations the
// experiments and examples need: build, run, sample, crash, recover,
// retune. The two tiers behind the border router are a Backend,
// attached explicitly (AttachBackend) and fed through one hand-off.
package core

import (
	"fmt"
	"strconv"

	"iiotds/internal/agg"
	"iiotds/internal/coap"
	"iiotds/internal/link"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// MACKind selects the medium-access discipline for a device class.
type MACKind int

// Available MAC kinds.
const (
	MACCSMA MACKind = iota
	MACLPL
	MACRIMAC
)

// Node is one emulated field device with its full protocol stack.
type Node struct {
	ID     radio.NodeID
	MAC    mac.MAC
	Link   *link.Link
	Router *rpl.Router
	Agg    *agg.Node
	RNFD   *rpl.RNFD

	// CoAP endpoint over the mesh (nil unless the node's profile says
	// WithCoAP).
	CoAP   *coap.Conn
	Server *coap.Server

	profile *Profile
	sampler agg.Sampler
	up      bool
}

// Profile returns the device class this node was built from.
func (n *Node) Profile() *Profile { return n.profile }

// Addr returns the node's CoAP address on the mesh transport.
func (n *Node) Addr() string { return strconv.Itoa(int(n.ID)) }

// Up reports whether the node is running.
func (n *Node) Up() bool { return n.up }

// SetSampler installs the function that produces this node's local
// sensor readings for aggregation queries.
func (n *Node) SetSampler(s agg.Sampler) { n.sampler = s }

// Deployment is a Fleet on one kernel and one medium, named here for
// code that is about exactly that substrate (a trace export, a medium's
// neighbor lists); AttachBackend puts Fig. 1's other two tiers behind
// its border router.
type Deployment struct {
	Fleet
	K     *sim.Kernel
	M     *radio.Medium
	Reg   *metrics.Registry
	Trace *trace.Recorder // nil when tracing is disabled
}

// meshTransport adapts the RPL data plane to coap.Transport. Addresses
// are decimal node IDs.
type meshTransport struct {
	node *Node
	recv func(from string, data []byte)
}

// Send implements coap.Transport.
func (t *meshTransport) Send(addr string, data []byte) error {
	dst, err := strconv.Atoi(addr)
	if err != nil {
		return fmt.Errorf("core: bad mesh address %q: %w", addr, err)
	}
	return t.node.Router.SendTo(radio.NodeID(dst), lowpan.ProtoCoAP, data)
}

// SetReceiver implements coap.Transport.
func (t *meshTransport) SetReceiver(fn func(from string, data []byte)) { t.recv = fn }

func (t *meshTransport) deliver(from string, data []byte) {
	if t.recv != nil {
		t.recv(from, data)
	}
}

// LocalAddr implements coap.Transport.
func (t *meshTransport) LocalAddr() string { return t.node.Addr() }

// Close implements coap.Transport.
func (t *meshTransport) Close() error { return nil }

var _ coap.Transport = (*meshTransport)(nil)
