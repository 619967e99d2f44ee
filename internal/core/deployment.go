// Package core is the middleware that assembles the paper's three-tier
// architecture (Fig. 1) into a running system:
//
//   - sensing-and-actuation layer: emulated nodes, each with a radio,
//     a MAC (CSMA or LPL), a link layer, an RPL router, the aggregation
//     service, and a CoAP endpoint reachable over the mesh;
//   - application-logic layer: a pub/sub broker plus whatever rules the
//     application wires to it;
//   - data-storage layer: a time-series store fed from the broker.
//
// A Deployment owns the whole stack and exposes the operations the
// experiments and examples need: build, run, sample, observe, crash,
// recover, retune.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/bus"
	"iiotds/internal/coap"
	"iiotds/internal/link"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/registry"
	"iiotds/internal/rpl"
	"iiotds/internal/sim"
	"iiotds/internal/store"
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

// Deployment is a full three-tier system under emulation: a fleet on
// one kernel and one medium, plus the optional backend tiers.
type Deployment struct {
	fleet
	K     *sim.Kernel
	M     *radio.Medium
	Reg   *metrics.Registry
	Trace *trace.Recorder // nil when tracing is disabled

	// Application and storage tiers (nil unless Stack.WithBackend).
	Bus      *bus.Broker
	Registry *registry.Registry
	series   map[string]*store.SeriesEngine // storage tier, by topic
}

// RunUntilConverged advances virtual time until the DODAG is complete or
// maxSim elapses; it reports success and the convergence time.
func (d *Deployment) RunUntilConverged(maxSim time.Duration) (bool, time.Duration) {
	start := d.K.Now()
	deadline := start + maxSim
	for d.K.Now() < deadline {
		if d.Converged() {
			return true, d.K.Now() - start
		}
		d.K.RunFor(time.Second)
	}
	return d.Converged(), d.K.Now() - start
}

// PublishObservation routes a canonical observation into the backend
// tiers: broker topic obs/<device>/<cap> and the time-series store.
func (d *Deployment) PublishObservation(o registry.Observation) error {
	if d.Bus == nil {
		return fmt.Errorf("core: deployment has no backend")
	}
	payload := []byte(fmt.Sprintf("%g", o.Value))
	if err := d.Bus.Publish(o.Topic(), payload, true); err != nil {
		return err
	}
	d.Series(o.Topic()).Append(store.Point{T: o.At, V: o.Value})
	return nil
}

// Series returns (creating if needed) the storage tier's series for a
// topic. Each keeps at most 4096/DefaultSegmentSize closed segments, so
// a long-running deployment's memory stays bounded.
func (d *Deployment) Series(topic string) *store.SeriesEngine {
	e, ok := d.series[topic]
	if !ok {
		e = store.NewSeriesEngine(0)
		e.SetRetention(4096 / store.DefaultSegmentSize)
		d.series[topic] = e
	}
	return e
}

// SeriesNames returns the topics the storage tier holds, sorted.
func (d *Deployment) SeriesNames() []string {
	names := make([]string, 0, len(d.series))
	for name := range d.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close releases backend resources.
func (d *Deployment) Close() {
	if d.Bus != nil {
		d.Bus.Close()
	}
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
