package exp

import (
	"fmt"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
)

// e13Fleet names one fleet composition under test.
type e13Fleet struct {
	name     string
	backbone core.Profile
	leaf     core.Profile
}

// e13Fleets returns the three compositions: the heterogeneous fleet the
// profile builder exists for, plus the two homogeneous baselines. Each
// fleet uses its class-appropriate configuration — that freedom is the
// point: mains-powered CSMA backbone routers can afford fast fixed-rate
// beaconing (so duty-cycled leaves sleeping through most DIOs still
// catch one quickly), while battery leaves duty-cycle at wake.
func e13Fleets(wake time.Duration) []e13Fleet {
	fastBeacon := &rpl.Config{
		Trickle: rpl.TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 1, K: 1 << 30},
	}
	lpl := mac.LPLConfig{WakeInterval: wake}
	return []e13Fleet{
		{
			name:     "mixed",
			backbone: core.Profile{Name: "backbone", MAC: core.MACCSMA, Router: fastBeacon},
			leaf:     core.Profile{Name: "leaf", MAC: core.MACLPL, LPL: lpl},
		},
		{
			name:     "all-CSMA",
			backbone: core.Profile{Name: "backbone", MAC: core.MACCSMA},
			leaf:     core.Profile{Name: "leaf", MAC: core.MACCSMA},
		},
		{
			name:     "all-LPL",
			backbone: core.Profile{Name: "backbone", MAC: core.MACLPL, LPL: lpl},
			leaf:     core.Profile{Name: "leaf", MAC: core.MACLPL, LPL: lpl},
		},
	}
}

// e13Class is one (fleet, device class) measurement.
type e13Class struct {
	nodes     int
	radioOn   float64 // steady-state radio-on fraction over the window
	sent      int     // leaf readings originated (0 for the backbone row)
	delivered int
	meanLat   time.Duration
}

// e13Run is one fleet's measurement: per-class steady state plus
// convergence.
type e13Run struct {
	converged bool
	backbone  e13Class
	leaf      e13Class
}

// runE13 builds one fleet on the scenario cluster topology — a plant
// spine with the border router at the origin, `spine` backbone routers
// 15 m apart, and `leaves` leaf sensors hung 12 m off each — converges
// it, then has every leaf push one reading upward per period for
// window; it measures delivery, end-to-end latency, and the per-class
// radio-on fraction over the window.
func runE13(tr *Trial, fleet e13Fleet, spine, leaves int, seed int64, period, window time.Duration) e13Run {
	d := scenario.Build(scenario.Spec{
		Seed:     seed,
		Topo:     scenario.TopoSpec{Kind: scenario.TopoCluster, Heads: spine, Members: leaves},
		Profiles: []core.Profile{fleet.backbone, fleet.leaf},
	}).D
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)

	out := e13Run{}
	out.converged, _ = d.RunUntilConverged(10 * time.Minute)
	// Settle: let DAO refresh and trickle reach steady state so the
	// window measures operation, not joining.
	d.K.RunFor(time.Minute)

	leafNodes := d.NodesByProfile("leaf")
	sentAt := make([]sim.Time, 0, 256)
	var latSum time.Duration
	delivered := 0
	d.Root().Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
		if len(payload) < 2 {
			return
		}
		idx := int(payload[0])<<8 | int(payload[1])
		if idx < len(sentAt) {
			latSum += d.K.Now() - sentAt[idx]
			delivered++
		}
	})
	stopAt := d.K.Now() + window
	// Jitter staggers leaf reporting phases, as real sensors drift.
	push := d.StartPush(leafNodes, lowpan.ProtoRaw, period, period/2, func(*core.Node) []byte {
		if d.K.Now() >= stopAt {
			return nil // the repeaters keep firing past the window, for stragglers
		}
		idx := len(sentAt)
		sentAt = append(sentAt, d.K.Now())
		return []byte{byte(idx >> 8), byte(idx), 0x5a, 0x5a}
	})

	classOn := func(name string) (on time.Duration, nodes int) {
		for _, n := range d.NodesByProfile(name) {
			on += d.M.Energy().Ledger(int(n.ID)).RadioOn()
			nodes++
		}
		return on, nodes
	}
	// Always-on MACs accrue idle listening in whole-second quanta that
	// overlap tx/rx airtime, so the raw fraction can exceed 1 by the
	// traffic fraction; clamp to the physical duty cycle.
	frac := func(on time.Duration, nodes int, span time.Duration) float64 {
		f := float64(on) / float64(nodes) / float64(span)
		if f > 1 {
			f = 1
		}
		return f
	}
	bOn0, bN := classOn("backbone")
	lOn0, lN := classOn("leaf")
	start := d.K.Now()
	d.K.RunFor(window + 30*time.Second) // 30 s of grace for in-flight readings
	span := d.K.Now() - start
	bOn1, _ := classOn("backbone")
	lOn1, _ := classOn("leaf")

	out.backbone = e13Class{nodes: bN, radioOn: frac(bOn1-bOn0, bN, span)}
	out.leaf = e13Class{
		nodes:   lN,
		radioOn: frac(lOn1-lOn0, lN, span),
		sent:    push.Sent(), delivered: delivered,
	}
	if delivered > 0 {
		out.leaf.meanLat = latSum / time.Duration(delivered)
	}
	return out
}

// E13MixedFleet tests the heterogeneity the profile builder makes
// expressible (§III, §IV-B): one shared medium carrying two device
// classes — mains-powered CSMA backbone routers and LPL duty-cycled
// battery leaves — and measures §IV-B's lifetime/latency trade-off *per
// class* against both homogeneous baselines. A homogeneous fleet must
// pick one point on the trade-off for everyone; a mixed fleet buys
// near-CSMA delivery latency while the leaf class keeps a duty-cycled
// radio.
func E13MixedFleet(s Scale) *Table {
	spine, leaves := 3, 2
	wake := 250 * time.Millisecond
	period, window := 10*time.Second, 2*time.Minute
	if s == Full {
		spine, leaves = 6, 3
		window = 5 * time.Minute
	}

	t := &Table{
		ID:    "E13",
		Title: "Heterogeneous fleet: CSMA backbone + LPL leaves vs homogeneous baselines",
		Claim: "§III/§IV-B: the sensing layer is heterogeneous; per-class composition buys latency AND lifetime where a homogeneous fleet must choose",
		Columns: []string{
			"fleet", "class", "nodes", "delivered", "mean latency", "radio-on",
		},
	}

	fleets := e13Fleets(wake)
	runs, rs := Sweep(fleets, func(tr *Trial, f e13Fleet) e13Run {
		return runE13(tr, f, spine, leaves, 1301, period, window)
	})
	t.Stats = rs

	for i, f := range fleets {
		r := runs[i]
		t.AddRow(f.name, fmt.Sprintf("backbone(%s)", macName(f.backbone.MAC)),
			di(r.backbone.nodes), "-", "-", pct(r.backbone.radioOn))
		t.AddRow(f.name, fmt.Sprintf("leaf(%s)", macName(f.leaf.MAC)),
			di(r.leaf.nodes),
			fmt.Sprintf("%d/%d", r.leaf.delivered, r.leaf.sent),
			fmt.Sprintf("%.0f ms", float64(r.leaf.meanLat.Milliseconds())),
			pct(r.leaf.radioOn))
	}

	mixed, csma, lpl := runs[0], runs[1], runs[2]
	t.Finding = fmt.Sprintf(
		"the mixed fleet delivers leaf readings in %.0f ms (all-LPL: %.0f ms, %.1fx slower) while its leaves keep a %.1f%% duty cycle (all-CSMA leaves: %.0f%%); on one medium the classes diverge %.0fx in radio-on time (backbone %.0f%% vs leaf %.1f%%)",
		float64(mixed.leaf.meanLat.Milliseconds()),
		float64(lpl.leaf.meanLat.Milliseconds()),
		float64(lpl.leaf.meanLat)/maxf(float64(mixed.leaf.meanLat), 1),
		mixed.leaf.radioOn*100, csma.leaf.radioOn*100,
		mixed.backbone.radioOn/maxf(mixed.leaf.radioOn, 1e-9),
		mixed.backbone.radioOn*100, mixed.leaf.radioOn*100)
	return t
}

// macName renders a MACKind for table rows.
func macName(k core.MACKind) string {
	switch k {
	case core.MACLPL:
		return "LPL"
	case core.MACRIMAC:
		return "RI-MAC"
	default:
		return "CSMA"
	}
}
