package exp

import (
	"fmt"
	"math"
	"time"

	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/spectrum"
	"iiotds/internal/trial"
)

// e6Regime is one coexistence strategy.
type e6Regime int

const (
	e6Uncoordinated e6Regime = iota
	e6Coordinated
	e6Adaptive
)

func (r e6Regime) String() string {
	switch r {
	case e6Uncoordinated:
		return "uncoordinated"
	case e6Coordinated:
		return "coordinated"
	default:
		return "adaptive-hop"
	}
}

// e6Tenant is one administrative domain's star network.
type e6Tenant struct {
	name     string
	macs     []*mac.CSMA
	sent     int
	ok       int
	failures metrics.Counter
}

// runE6 colocates k tenants (one sink + leaves each) in the same space —
// the construction-site scenario of §IV-C — and measures delivery under
// the given regime for dur.
func runE6(tr *trial.Trial, kTenants, leaves int, regime e6Regime, seed int64, dur time.Duration) (delivery float64, crossCollisions float64, retriesPerMsg float64, hops int) {
	k := sim.New(seed)
	tr.Observe(k)
	reg := metrics.NewRegistry()
	m := radio.NewMedium(k, radio.DefaultParams(), reg)
	tr.ObserveMedium(k, m)

	names := make([]string, kTenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%c", 'a'+i)
	}
	var plan spectrum.Plan
	switch regime {
	case e6Coordinated:
		plan = spectrum.CoordinatedPlan(names)
	default:
		plan = spectrum.UncoordinatedPlan(names)
	}

	tenants := make([]*e6Tenant, kTenants)
	nextID := radio.NodeID(0)
	for ti, name := range names {
		t := &e6Tenant{name: name}
		tenants[ti] = t
		ch := plan.ChannelOf(name)
		// Tenant stars spread across one shared site (a construction
		// site, §IV-C): adjacent tenants hear each other, distant ones
		// are hidden terminals whose transmissions still collide at the
		// sinks in between.
		center := radio.Position{X: 15 + float64(ti)*12, Y: 25}
		n := leaves + 1
		ids := make([]radio.NodeID, n)
		for j := 0; j < n; j++ {
			id := nextID
			nextID++
			ids[j] = id
			pos := center
			if j > 0 {
				ang := 2 * math.Pi * float64(j) / float64(leaves)
				pos = radio.Position{X: center.X + 10*math.Cos(ang), Y: center.Y + 10*math.Sin(ang)}
			}
			idx := j
			m.Attach(id, pos, radio.ReceiverFunc(func(f radio.Frame) {
				t.macs[idx].RadioReceive(f)
			}))
		}
		t.macs = make([]*mac.CSMA, n)
		for j := 0; j < n; j++ {
			t.macs[j] = mac.NewCSMA(m, ids[j], mac.CSMAConfig{
				Config: mac.Config{Channel: ch, Tenant: name},
			})
			t.macs[j].Start()
		}
		// Leaves push a 48-byte reading every 300 ms: the aggregate
		// offered load saturates a single shared channel but is light
		// when tenants occupy distinct channels.
		sink := ids[0]
		payload := make([]byte, 48)
		for j := 1; j < n; j++ {
			j := j
			k.Every(200*time.Millisecond, 100*time.Millisecond, func() {
				if t.macs[j].QueueLen() > 4 {
					return // don't build unbounded backlog
				}
				t.sent++
				t.macs[j].Send(sink, payload, func(ok bool) {
					if ok {
						t.ok++
					} else {
						t.failures.Inc()
					}
				})
			})
		}
		if regime == e6Adaptive {
			tt := t
			hopper := spectrum.NewHopper(k, name, ch, &t.failures,
				spectrum.RetunerFunc(func(_ string, newCh uint8) {
					for _, mc := range tt.macs {
						mc.Retune(newCh)
					}
				}),
				spectrum.HopperConfig{Interval: 10 * time.Second, CollisionThreshold: 2})
			hopper.Start()
			defer func(h *spectrum.Hopper) { hops += h.Hops }(hopper)
		}
	}

	k.RunFor(dur)
	totalSent, totalOK := 0, 0
	for _, t := range tenants {
		totalSent += t.sent
		totalOK += t.ok
	}
	if totalSent > 0 {
		delivery = float64(totalOK) / float64(totalSent)
		// Retries are the hidden price ARQ pays to mask contention:
		// every one is airtime and energy burned on coexistence.
		retriesPerMsg = reg.CounterWith("mac.retries", metrics.L("mac", "csma")).Value() / float64(totalSent)
	}
	crossCollisions = reg.Counter("radio.collisions_cross_tenant").Value()
	return delivery, crossCollisions, retriesPerMsg, hops
}

// E6Coexistence tests §IV-C: administrative scalability requires sharing
// the spectrum; uncoordinated tenants collapse each other's delivery as
// their number grows, a coordinated plan restores it, and decentralized
// adaptive hopping approaches the coordinated outcome without any
// inter-administration agreement.
func E6Coexistence(s Scale) *Table {
	tenantCounts := []int{1, 4}
	leaves := 6
	dur := 2 * time.Minute
	if s == Full {
		tenantCounts = []int{1, 2, 4, 8}
		leaves = 8
		dur = 5 * time.Minute
	}

	t := &Table{
		ID:      "E6",
		Title:   "Multi-tenant spectrum sharing in one physical space",
		Claim:   "§IV-C: co-located systems of different administrations compete for channels [35,36]",
		Columns: []string{"tenants", "regime", "delivery", "retries/msg", "cross-tenant collisions", "hops"},
	}

	type e6Point struct {
		kT     int
		regime e6Regime
	}
	var pts []e6Point
	for _, kT := range tenantCounts {
		for _, regime := range []e6Regime{e6Uncoordinated, e6Coordinated, e6Adaptive} {
			pts = append(pts, e6Point{kT, regime})
		}
	}
	type e6Run struct {
		del, cross, retries float64
		hops                int
	}
	runs, rs := trial.Sweep(pts, func(tr *trial.Trial, p e6Point) e6Run {
		del, cross, retries, hops := runE6(tr, p.kT, leaves, p.regime, 601, dur)
		return e6Run{del, cross, retries, hops}
	})
	t.Stats = rs

	type outcome struct{ del, retries, cross float64 }
	results := map[e6Regime]outcome{}
	maxK := tenantCounts[len(tenantCounts)-1]
	for i, p := range pts {
		r := runs[i]
		t.AddRow(di(p.kT), p.regime.String(), pct(r.del), f2(r.retries), f1(r.cross), di(r.hops))
		if p.kT == maxK {
			results[p.regime] = outcome{r.del, r.retries, r.cross}
		}
	}
	t.Finding = fmt.Sprintf(
		"at %d co-located tenants the shared channel costs %.2f retries/msg and %.0f cross-tenant collisions (%.1f%% delivered); a spectrum plan eliminates them (%.2f retries/msg, %.1f%%); adaptive hopping gets %.2f retries/msg with no coordination",
		maxK, results[e6Uncoordinated].retries, results[e6Uncoordinated].cross, results[e6Uncoordinated].del*100,
		results[e6Coordinated].retries, results[e6Coordinated].del*100, results[e6Adaptive].retries)
	return t
}
