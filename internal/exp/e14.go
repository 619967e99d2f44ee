package exp

import (
	"fmt"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/scenario"
)

// e14Run is one churn-soak measurement: a fleet held under sustained,
// seeded fault load (crash/recover churn, link flapping, burst loss,
// partition storms) while a CoAP workload runs over it.
type e14Run struct {
	nodes      int
	cycles     int // completed crash→recover cycles
	mttf       time.Duration
	mttr       time.Duration
	avail      float64
	recoveries int
	rejoins    int
	meanRejoin time.Duration
	maxRejoin  time.Duration
	coapOK     int
	coapFail   int
}

// e14Params sizes one soak.
type e14Params struct {
	n      int
	seed   int64
	soak   time.Duration
	faults scenario.FaultSpec
	// reqEvery is the CoAP probe period; drain bounds the post-soak
	// settling phase (recoveries owed, rejoins, CON timeouts).
	reqEvery time.Duration
	drain    time.Duration
}

// runE14 converges the fleet, soaks it under churn, drains, and reads
// the reliability ledger. Determinism: the churn schedule comes from the
// engine's own seeded generator, every poll iterates the churn-node
// slice (never a map), and per-node ledger stats are folded in sorted
// Components() order — so the row is byte-identical at any -parallel.
func runE14(tr *Trial, p e14Params) e14Run {
	b := scenario.Build(scenario.Spec{
		Seed:     p.seed,
		Topo:     scenario.TopoSpec{Kind: scenario.TopoGrid, N: p.n},
		WithCoAP: true,
		Faults:   p.faults,
	})
	d := b.D
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)
	d.RunUntilConverged(3 * time.Minute)

	// Arm after convergence so the reliability ledger's observation
	// window starts at steady state, not mid-join.
	b.ArmFaults()
	ledger, churn := b.Ledger, b.Churn
	churners := p.faults.Churn.Resolve(p.n)

	// Rejoin probe: every recovery opens a measurement window; a 1 s
	// poller closes it when the node is healthily attached again. A
	// re-crash while the window is open counts that recovery as a
	// failed rejoin.
	out := e14Run{nodes: p.n}
	pendingSince := make(map[radio.NodeID]time.Duration)
	var rejoinTotal time.Duration
	churn.OnRecover = func(id radio.NodeID) { pendingSince[id] = d.K.Now() }
	churn.OnCrash = func(id radio.NodeID) { delete(pendingSince, id) }
	poll := d.K.Every(time.Second, 0, func() {
		for _, id := range churners {
			t0, open := pendingSince[id]
			if !open || !d.Healthy(id) {
				continue
			}
			delete(pendingSince, id)
			took := d.K.Now() - t0
			out.rejoins++
			rejoinTotal += took
			if took > out.maxRejoin {
				out.maxRejoin = took
			}
		}
	})

	// CoAP workload: every churn node serves /status; the border router
	// probes them round-robin with confirmable GETs. Requests addressed
	// to a crashed node exercise the retransmit-then-ErrTimeout path.
	probe := scenario.StartProbe(&d.Fleet, churners, p.reqEvery)

	churn.Start()
	d.K.RunFor(p.soak)
	churn.Stop()
	probe.Stop()

	// Drain: owed recoveries fire, rejoin windows close, and in-flight
	// CONs to dead incarnations finish their backoff (up to
	// ~31×AckTimeout×1.5 before ErrTimeout).
	d.Await(func() bool {
		return probe.Outstanding == 0 && len(pendingSince) == 0 && d.Healthy(churners...)
	}, p.drain)
	poll.Stop()

	out.coapOK, out.coapFail = probe.OK, probe.Fail
	out.cycles = churn.Recoveries()
	out.recoveries = churn.Recoveries()
	if out.rejoins > 0 {
		out.meanRejoin = rejoinTotal / time.Duration(out.rejoins)
	}

	// Fold per-node reliability stats in sorted component order.
	now := d.K.Now()
	comps := ledger.Components()
	var mttf, mttr time.Duration
	for _, name := range comps {
		s := ledger.StatsOf(name, now)
		mttf += s.MTTF
		mttr += s.MTTR
	}
	if len(comps) > 0 {
		out.mttf = mttf / time.Duration(len(comps))
		out.mttr = mttr / time.Duration(len(comps))
		out.avail = ledger.SystemAvailability(now)
	}
	return out
}

// e14Faults builds the fault schedule for the soak: crash/recover churn
// over the odd-numbered half of the fleet (the root, node 0, is never
// crashed), one flapping link, one Gilbert–Elliott bursty link, and
// periodic partition storms that cleave off the far half. The spec is
// fleet-size independent; scenario.Build expands it per n.
func e14Faults(up, minUp, down, minDown, flap, part, hold time.Duration) scenario.FaultSpec {
	return scenario.FaultSpec{
		Churn:  scenario.NodeSel{Kind: "odd"},
		MeanUp: up, MinUp: minUp,
		MeanDown: down, MinDown: minDown,

		FlapLink:  [2]int{1, 2},
		FlapEvery: flap,
		FlapPRR:   0.2,

		GELink:     [2]int{5, 8},
		GEPGoodBad: 0.1, GEPBadGood: 0.3, GEBadPRR: 0.3,
		GEStep: 5 * time.Second,

		Part:      scenario.NodeSel{Kind: "farhalf"},
		PartEvery: part,
		PartHold:  hold,
	}
}

// E14ChurnSoak tests §V-A: reliability, availability, and maintainability
// are first-class requirements of the sensing-and-actuation layer — so
// the stack must survive sustained churn, not just one staged failure.
// The soak holds two fleet sizes under seeded crash/recover churn plus
// link faults for the full period, then checks that every recovered node
// rejoined the DODAG unattended and reports the ledger's availability
// figures alongside end-to-end CoAP success.
func E14ChurnSoak(s Scale) *Table {
	sizes := []int{9, 16}
	soak := 6 * time.Minute
	faults := e14Faults(25*time.Second, 25*time.Second, 5*time.Second, 5*time.Second,
		60*time.Second, 150*time.Second, 10*time.Second)
	reqEvery := 5 * time.Second
	if s == Full {
		sizes = []int{16, 36}
		soak = 30 * time.Minute
		faults = e14Faults(90*time.Second, 60*time.Second, 20*time.Second, 10*time.Second,
			120*time.Second, 400*time.Second, 15*time.Second)
		reqEvery = 10 * time.Second
	}

	t := &Table{
		ID:      "E14",
		Title:   "Churn soak: availability and self-repair under sustained faults",
		Claim:   "§V-A: reliability, availability, maintainability are first-class requirements; the layer must self-repair through continuous churn",
		Columns: []string{"nodes", "cycles", "MTTF", "MTTR", "availability", "rejoined", "rejoin mean/max", "CoAP success"},
	}

	rows, rs := Sweep(sizes, func(tr *Trial, n int) e14Run {
		return runE14(tr, e14Params{
			n:        n,
			seed:     1501 + int64(n),
			soak:     soak,
			faults:   faults,
			reqEvery: reqEvery,
			drain:    4 * time.Minute,
		})
	})
	t.Stats = rs
	for _, r := range rows {
		succ := 0.0
		if r.coapOK+r.coapFail > 0 {
			succ = float64(r.coapOK) / float64(r.coapOK+r.coapFail)
		}
		t.AddRow(di(r.nodes), di(r.cycles),
			fmt.Sprintf("%.0f s", r.mttf.Seconds()),
			fmt.Sprintf("%.1f s", r.mttr.Seconds()),
			f3(r.avail),
			fmt.Sprintf("%d/%d", r.rejoins, r.recoveries),
			fmt.Sprintf("%.1f/%.0f s", r.meanRejoin.Seconds(), r.maxRejoin.Seconds()),
			pct(succ))
	}

	last := rows[len(rows)-1]
	t.Finding = fmt.Sprintf(
		"across %d crash/recover cycles at %d nodes, %d/%d recovered nodes rejoined the DODAG unattended (mean %.1f s); fleet availability %.3f with end-to-end CoAP success %.1f%% under sustained churn",
		last.cycles, last.nodes, last.rejoins, last.recoveries, last.meanRejoin.Seconds(),
		last.avail, 100*float64(last.coapOK)/maxf(float64(last.coapOK+last.coapFail), 1))
	return t
}
