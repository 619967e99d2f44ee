// Package spectrum addresses §IV-C administrative scalability: multiple
// tenants' systems sharing the same physical space compete for wireless
// channels. It provides the three coexistence regimes E6 compares:
//
//   - Uncoordinated: every tenant uses the default channel (what happens
//     when nobody talks to each other on a construction site);
//   - Coordinated: a spectrum plan assigns tenants distinct channels
//     (requires the administrative cooperation the paper says is hard);
//   - Adaptive: each tenant independently senses its collision rate and
//     hops away from bad channels — decentralized, no cooperation needed.
package spectrum

import (
	"sort"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/sim"
)

// Channels available in the emulated band (802.15.4's 2.4 GHz numbering).
var Channels = []uint8{11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}

// DefaultChannel is where uncoordinated deployments land.
const DefaultChannel uint8 = 11

// Plan assigns tenants to channels.
type Plan map[string]uint8

// CoordinatedPlan spreads tenants across the band round-robin — the
// outcome of an explicit spectrum agreement between administrations.
func CoordinatedPlan(tenants []string) Plan {
	sorted := append([]string(nil), tenants...)
	sort.Strings(sorted)
	p := make(Plan, len(sorted))
	for i, t := range sorted {
		p[t] = Channels[i%len(Channels)]
	}
	return p
}

// UncoordinatedPlan puts every tenant on the default channel.
func UncoordinatedPlan(tenants []string) Plan {
	p := make(Plan, len(tenants))
	for _, t := range tenants {
		p[t] = DefaultChannel
	}
	return p
}

// ChannelOf returns the tenant's channel under the plan.
func (p Plan) ChannelOf(tenant string) uint8 {
	if ch, ok := p[tenant]; ok {
		return ch
	}
	return DefaultChannel
}

// Retuner is what a hopper adjusts: typically the deployment layer,
// which retunes every node of a tenant.
type Retuner interface {
	RetuneTenant(tenant string, ch uint8)
}

// RetunerFunc adapts a function to Retuner.
type RetunerFunc func(tenant string, ch uint8)

// RetuneTenant implements Retuner.
func (f RetunerFunc) RetuneTenant(tenant string, ch uint8) { f(tenant, ch) }

// HopperConfig tunes the adaptive channel hopper.
type HopperConfig struct {
	// Interval between quality evaluations (default 10 s).
	Interval time.Duration
	// CollisionThreshold is the per-interval collision count above
	// which the tenant hops (default 20).
	CollisionThreshold float64
}

func (c *HopperConfig) applyDefaults() {
	if c.Interval == 0 {
		c.Interval = 10 * time.Second
	}
	if c.CollisionThreshold == 0 {
		c.CollisionThreshold = 20
	}
}

// Hopper is the decentralized adaptive regime: each tenant watches its
// own collision counter and hops pseudo-randomly when the channel turns
// bad. No tenant-to-tenant coordination is required; disjoint channels
// emerge (usually) from local decisions.
type Hopper struct {
	k       *sim.Kernel
	tenant  string
	retuner Retuner
	counter *metrics.Counter
	cfg     HopperConfig

	current  uint8
	lastSeen float64
	rep      *sim.Repeater

	// Hops counts channel changes.
	Hops int
}

// NewHopper creates a hopper for tenant, reading collisions from counter
// (typically the medium's per-tenant collision counter).
func NewHopper(k *sim.Kernel, tenant string, start uint8, counter *metrics.Counter, retuner Retuner, cfg HopperConfig) *Hopper {
	cfg.applyDefaults()
	return &Hopper{
		k:       k,
		tenant:  tenant,
		retuner: retuner,
		counter: counter,
		cfg:     cfg,
		current: start,
	}
}

// Current returns the channel the tenant currently occupies.
func (h *Hopper) Current() uint8 { return h.current }

// Start begins periodic evaluation.
func (h *Hopper) Start() {
	if h.rep != nil {
		return
	}
	h.lastSeen = h.counter.Value()
	h.rep = h.k.Every(h.cfg.Interval, h.cfg.Interval/4, h.evaluate)
}

func (h *Hopper) evaluate() {
	now := h.counter.Value()
	delta := now - h.lastSeen
	h.lastSeen = now
	if delta <= h.cfg.CollisionThreshold {
		return
	}
	// Hop to a pseudo-random other channel.
	next := Channels[h.k.Rand().Intn(len(Channels))]
	for next == h.current {
		next = Channels[h.k.Rand().Intn(len(Channels))]
	}
	h.current = next
	h.Hops++
	h.retuner.RetuneTenant(h.tenant, next)
}
