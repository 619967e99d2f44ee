// Heterogeneous deployments (§III, §IV-C): the sensing-and-actuation
// layer of a real facility is not one device class but many — mixed MAC
// disciplines, vendors, channels, and administrative domains that must
// still interoperate on one medium. This file is the layered stack
// builder that makes such fleets expressible: a Profile describes one
// device class, a Topology binds every node position to a profile, and
// NewStack composes each node's per-layer stack (radio → MAC → link →
// RPL → agg/CoAP), with a replaceable MAC (Factories).
package core

import (
	"fmt"
	"strconv"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/clock"
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

// DefaultProfile is the conventional name for the single profile of a
// homogeneous stack (one Profile, bound to every position by Uniform).
const DefaultProfile = "default"

// Profile describes one device class: the MAC discipline and its tuning,
// the channel and administrative tenant the class operates under, an
// optional per-class router configuration, and the class's roles (CoAP
// endpoint, RNFD sentinel duty). Nodes of different
// profiles share one medium and one DODAG — heterogeneity lives below
// the network layer, interoperation above it.
type Profile struct {
	// Name is the profile's identity; Topology entries reference it.
	Name string
	// MAC selects the discipline; the matching config below tunes a
	// duty-cycled one (CSMA runs mac's defaults).
	MAC   MACKind
	LPL   mac.LPLConfig
	RIMAC mac.RIMACConfig
	// Channel tunes this class's radios; Tenant tags its frames (§IV-C).
	Channel uint8
	Tenant  string
	// Router, when non-nil, tunes this class's RPL instance (e.g.
	// mains-powered backbone routers can afford faster beaconing than
	// duty-cycled leaves); nil runs rpl's defaults.
	Router *rpl.Config
	// RNFD, when non-nil, attaches the root-failure detector to this
	// class's non-root nodes.
	RNFD *rpl.RNFDConfig
	// WithCoAP attaches a CoAP endpoint (server+client) to this class.
	WithCoAP bool
}

// NodeSpec places one node and names the device class it instantiates.
type NodeSpec struct {
	Pos     radio.Position
	Profile string
}

// Topology is a heterogeneous deployment plan: one entry per node, in
// node-ID order; index 0 is the border router.
type Topology []NodeSpec

// Uniform binds every position to the same profile — the homogeneous
// special case.
func Uniform(profile string, positions radio.Topology) Topology {
	t := make(Topology, len(positions))
	for i, pos := range positions {
		t[i] = NodeSpec{Pos: pos, Profile: profile}
	}
	return t
}

// Factories are the construction hooks NewStack composes each node's
// stack through. A nil field means the default construction; tests can
// interpose wrappers (e.g. a MAC that drops every third frame) without
// forking the builder.
type Factories struct {
	// MAC builds the medium-access layer for one node of profile p.
	MAC func(m *radio.Medium, id radio.NodeID, p *Profile) mac.MAC
}

// DefaultMAC builds the stock medium-access layer for one node: it
// dispatches on the profile's MAC kind, stamping the class's
// channel and tenant into the discipline config.
func DefaultMAC(m *radio.Medium, id radio.NodeID, p *Profile) mac.MAC {
	stamp := func(c *mac.Config) { c.Channel, c.Tenant = p.Channel, p.Tenant }
	switch p.MAC {
	case MACLPL:
		cfg := p.LPL
		stamp(&cfg.Config)
		return mac.NewLPL(m, id, cfg)
	case MACRIMAC:
		cfg := p.RIMAC
		stamp(&cfg.Config)
		return mac.NewRIMAC(m, id, cfg)
	default:
		var cfg mac.CSMAConfig
		stamp(&cfg.Config)
		return mac.NewCSMA(m, id, cfg)
	}
}

// mediumParams parameterizes every deployment's shared medium.
var mediumParams = radio.DefaultParams()

// Stack describes a heterogeneous deployment: the shared substrate
// (seed, medium) plus the device classes and the plan binding each node
// to one. The tiers behind the border router are not part of it; see
// AttachBackend.
type Stack struct {
	// Seed drives all simulation randomness.
	Seed int64
	// Profiles are the device classes; Topology references them by name.
	Profiles []Profile
	// Topology binds each node to a position and a profile; index 0 is
	// the border router.
	Topology Topology
	// TraceCapacity sizes the flight-recorder ring (0 = default,
	// negative = tracing disabled).
	TraceCapacity int
	// Factories override the MAC construction; zero value = default.
	Factories Factories
}

// validate panics with the offending field's name on a structural error
// in the stack description. Defaults are the layers' own: the MAC and
// RPL constructors fill every zero field.
func (s *Stack) validate() {
	if len(s.Topology) == 0 {
		panic("core: Stack.Topology is empty")
	}
	if len(s.Profiles) == 0 {
		panic("core: Stack.Profiles is empty")
	}
	byName := make(map[string]bool, len(s.Profiles))
	for i := range s.Profiles {
		name := s.Profiles[i].Name
		if name == "" {
			panic(fmt.Sprintf("core: Stack.Profiles[%d].Name is empty", i))
		}
		if byName[name] {
			panic(fmt.Sprintf("core: Stack.Profiles[%d].Name %q is a duplicate", i, name))
		}
		byName[name] = true
	}
	for i, ns := range s.Topology {
		if !byName[ns.Profile] {
			panic(fmt.Sprintf("core: Stack.Topology[%d].Profile %q is not in Stack.Profiles", i, ns.Profile))
		}
	}
	for i := range s.Profiles {
		if r := s.Profiles[i].Router; r != nil {
			checkRouter(r, fmt.Sprintf("Stack.Profiles[%d].Router", i))
		}
	}
}

// checkRouter refuses a negative duration in a profile's RPL
// configuration, naming the field. The defaults themselves are rpl's
// (rpl.NewRouter fills every zero field).
func checkRouter(c *rpl.Config, field string) {
	if c.Trickle.Imin < 0 {
		panic("core: " + field + ".Trickle.Imin is negative")
	}
	if c.DAOInterval < 0 {
		panic("core: " + field + ".DAOInterval is negative")
	}
	if c.ParentProbeInterval < 0 {
		panic("core: " + field + ".ParentProbeInterval is negative")
	}
}

// profileIn returns the named profile from a stack description; the
// name is known valid after validate.
func profileIn(s *Stack, name string) *Profile {
	for i := range s.Profiles {
		if s.Profiles[i].Name == name {
			return &s.Profiles[i]
		}
	}
	panic(fmt.Sprintf("core: unknown profile %q", name))
}

// populate composes and starts every node of the fleet's stack, in
// node-ID order, once the stripes' media exist.
func (f *Fleet) populate() {
	fac := f.stack.Factories
	if fac.MAC == nil {
		fac.MAC = DefaultMAC
	}
	for i := range f.stack.Topology {
		f.Nodes = append(f.Nodes, buildNode(f, fac, i))
	}
}

// buildNode composes and starts node i on the substrate of the medium
// that owns it: radio attach, MAC, link, RPL, aggregation, optional
// CoAP endpoint and RNFD sentinel. It is the single construction path
// for flat and sharded deployments.
func buildNode(f *Fleet, fac Factories, i int) *Node {
	id := radio.NodeID(i)
	m, p := f.Medium(id), profileIn(&f.stack, f.stack.Topology[i].Profile)
	k, rec := m.Kernel(), m.Recorder() // rec is nil when tracing is disabled
	n := &Node{ID: id, up: true, profile: p}
	m.Attach(id, f.stack.Topology[i].Pos, radio.ReceiverFunc(func(fr radio.Frame) {
		n.MAC.(radio.Receiver).RadioReceive(fr)
	}))
	n.MAC = fac.MAC(m, id, p)
	n.Link = link.New(id, n.MAC)
	n.Link.SetRecorder(rec)
	var rcfg rpl.Config
	if p.Router != nil {
		rcfg = *p.Router
	}
	n.Router = rpl.NewRouter(k, n.Link, i == 0, 0, rcfg, m.Registry())
	n.Router.SetRecorder(rec)
	n.Agg = agg.NewNode(k, n.Router, n.Link, func(attr string) (float64, bool) {
		if n.sampler == nil {
			return 0, false
		}
		return n.sampler(attr)
	})
	if p.WithCoAP {
		tr := &meshTransport{node: n}
		n.Router.Handle(lowpan.ProtoCoAP, func(src radio.NodeID, payload []byte) {
			tr.deliver(strconv.Itoa(int(src)), payload)
		})
		n.CoAP = coap.NewConn(tr, clock.Kernel{K: k}, coap.ConnConfig{
			Seed: f.stack.Seed + int64(i) + 1,
			// The mesh is slow (multi-hop, duty-cycled): give the
			// message layer room before retransmitting.
			AckTimeout: 4 * time.Second,
		})
		n.CoAP.SetTrace(rec, int32(id))
		n.CoAP.SetJourneys(m.Buffers().Journeys())
		n.Server = coap.NewServer()
		n.CoAP.Serve(n.Server)
	}
	n.MAC.Start()
	n.Router.Start()
	if p.RNFD != nil && i != 0 {
		n.RNFD = n.Router.AttachRNFD(*p.RNFD)
	}
	return n
}

// NewStack builds and starts a heterogeneous deployment: every node's
// stack is composed per its profile through the factories, on
// one shared medium.
func NewStack(cfg Stack) *Deployment {
	cfg.validate()

	k := sim.New(cfg.Seed)
	reg := metrics.NewRegistry()
	m := radio.NewMedium(k, mediumParams, reg)
	d := &Deployment{K: k, M: m, Reg: reg}
	d.stack = cfg
	d.sched, d.runFor, d.ctl, d.media, d.stripeOf = k, k.RunFor, m, []*radio.Medium{m}, make([]int, len(cfg.Topology))
	traceCap := cfg.TraceCapacity
	if traceCap == 0 {
		traceCap = trace.DefaultCapacity()
	}
	if traceCap > 0 {
		// The recorder's clock is the kernel's virtual time, so events
		// are ordered by simulated time and byte-identical across runs.
		d.Trace = trace.New(traceCap, k.Now)
		m.SetRecorder(d.Trace)
	}
	d.populate()
	return d
}
