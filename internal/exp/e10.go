package exp

import (
	"fmt"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
)

// e10Run is one self-healing measurement.
type e10Run struct {
	variant     string
	reconverged bool
	reconvTime  time.Duration
	controlMsgs float64 // routing control messages per node-minute, steady state
	switches    float64
}

// runE10 converges an n-node grid, measures steady-state control
// overhead, kills `kills` non-root nodes at once, and measures the time
// until every survivor is joined again.
func runE10(tr *Trial, n int, seed int64, trickle rpl.TrickleConfig, kills []int, observe time.Duration) e10Run {
	d := core.NewStack(core.Stack{
		Seed:     seed,
		Router:   rpl.Config{Trickle: trickle},
		Profiles: []core.Profile{{Name: core.DefaultProfile}},
		Topology: core.Uniform(core.DefaultProfile, radio.GridTopology(n, 15)),
	})
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)
	d.RunUntilConverged(3 * time.Minute)

	// Steady-state beaconing cost over 2 minutes. Probes and DAOs run
	// at fixed rates in both variants; the DIO rate is what adaptive
	// (trickle) vs fixed beaconing changes.
	ctrl := func() float64 { return d.Reg.Counter("rpl.dio_sent").Value() }
	before := ctrl()
	d.K.RunFor(2 * time.Minute)
	steady := (ctrl() - before) / float64(n) / 2 // DIOs per node-minute

	switchesBefore := d.Reg.Counter("rpl.parent_switches").Value()
	for _, v := range kills {
		d.Crash(radio.NodeID(v))
	}

	// Repaired means every survivor is attached, and not through a dead
	// parent (right after the kill they still point at corpses).
	var survivors []radio.NodeID
	for _, node := range d.Nodes[1:] {
		if node.Up() {
			survivors = append(survivors, node.ID)
		}
	}
	out := e10Run{controlMsgs: steady}
	if ok, took := d.Await(func() bool { return d.Healthy(survivors...) }, observe); ok {
		out.reconverged, out.reconvTime = true, took
	}
	out.switches = d.Reg.Counter("rpl.parent_switches").Value() - switchesBefore
	return out
}

// E10SelfHealing tests §V-D: the routing layer is self-organizing — it
// heals around simultaneous node failures without operator action — and
// trickle's adaptive beaconing keeps the steady-state maintenance cost
// low compared to fixed-rate beaconing at the same reactivity.
func E10SelfHealing(s Scale) *Table {
	n := 25
	observe := 4 * time.Minute
	kills := []int{6, 12} // interior forwarders
	if s == Full {
		n = 64
		observe = 6 * time.Minute
		kills = []int{9, 18, 27, 36}
	}

	adaptive := rpl.TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 6, K: 3}
	// Fixed-rate beaconing at the adaptive scheme's reactive rate:
	// Imin 500 ms, one doubling (Imax 1 s), no suppression.
	fixed := rpl.TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 1, K: 1 << 30}

	t := &Table{
		ID:      "E10",
		Title:   "Self-healing after node failures; maintenance cost of beaconing",
		Claim:   "§V-D: networking protocols at this layer are largely self-organized; adaptive beaconing keeps that affordable",
		Columns: []string{"beaconing", "killed", "reconverged", "repair time", "DIOs/node/min", "parent switches"},
	}

	variants := []struct {
		name string
		cfg  rpl.TrickleConfig
	}{{"trickle (adaptive)", adaptive}, {"fixed-rate", fixed}}
	rows, rs := Sweep(variants, func(tr *Trial, v struct {
		name string
		cfg  rpl.TrickleConfig
	}) e10Run {
		r := runE10(tr, n, 1001, v.cfg, kills, observe)
		r.variant = v.name
		return r
	})
	t.Stats = rs
	for _, r := range rows {
		repair := "never"
		if r.reconverged {
			repair = fmt.Sprintf("%.0f s", r.reconvTime.Seconds())
		}
		t.AddRow(r.variant, di(len(kills)), fmt.Sprintf("%v", r.reconverged), repair,
			f2(r.controlMsgs), f1(r.switches))
	}

	t.Finding = fmt.Sprintf(
		"the network healed %d simultaneous failures in %.0f s unattended; trickle beacons %.1f DIOs/node/min in steady state vs %.1f for fixed-rate beaconing (%.0fx less)",
		len(kills), rows[0].reconvTime.Seconds(), rows[0].controlMsgs, rows[1].controlMsgs,
		rows[1].controlMsgs/maxf(rows[0].controlMsgs, 0.01))
	return t
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
