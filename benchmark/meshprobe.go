package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
)

// meshSize is the recorded size of mesh-probe.
type meshSize struct {
	PlantSeed    int64         `json:"plant_seed"` // kernel and churn-schedule seed
	SetupRepeats int           `json:"setup_repeats"`
	Heads        int           `json:"heads"`
	Members      int           `json:"leaves_per_head"`
	Wake         time.Duration `json:"lpl_wake_ns"`
	ProbeEvery   time.Duration `json:"probe_every_ns"`
	PushEvery    time.Duration `json:"leaf_push_every_ns"`
	Settle       time.Duration `json:"virtual_settle_ns"`
	Horizon      time.Duration `json:"virtual_horizon_ns"` // at runSeconds, per repeat
	Drain        time.Duration `json:"virtual_drain_ns"`
	ChurnHeads   []int         `json:"churned_heads"`
	MeanUp       time.Duration `json:"churn_mean_up_ns"`
	MinUp        time.Duration `json:"churn_min_up_ns"`
	MeanDown     time.Duration `json:"churn_mean_down_ns"`
	MinDown      time.Duration `json:"churn_min_down_ns"`
}

func meshSizes(o options) meshSize {
	s := meshSize{
		Heads: 6, Members: 8, Wake: 125 * time.Millisecond,
		ProbeEvery: time.Second, PushEvery: 30 * time.Second,
		Settle: time.Minute, Horizon: 100 * time.Minute, Drain: 4 * time.Minute,
		PlantSeed:    1301,
		SetupRepeats: 15,          // a 0.1 s set-up: cheap to repeat, noisy when not
		ChurnHeads:   []int{3, 6}, // a third of the heads: one mid-spine, one at the far end
		MeanUp:       10 * time.Minute, MinUp: 2 * time.Minute,
		MeanDown: 45 * time.Second, MinDown: 15 * time.Second,
	}
	if o.smoke {
		s.Heads, s.Members, s.ChurnHeads, s.Horizon = 3, 2, []int{3}, 20*time.Minute
		s.MeanUp, s.MinUp, s.MeanDown, s.MinDown = 20*time.Second, 10*time.Second, 10*time.Second, 5*time.Second
	}
	s.Horizon = time.Duration(float64(s.Horizon) * o.scale())
	return s
}

func runMesh(o options) (*result, error) {
	return runSimTwice(o, meshSizes(o).SetupRepeats, meshOnce, func(o options) (float64, error) {
		p, err := meshSetup(o, &simTracing{spans: newSpanLog(false)})
		if err != nil {
			return 0, err
		}
		return p.setupWall, nil
	})
}

// meshPlant is the built, converged cluster plant.
type meshPlant struct {
	sz    meshSize
	spec  scenario.Spec
	b     *scenario.Built
	heads []*core.Node

	setupWall, convergeWall, convergeVirtual float64
}

func meshSetup(o options, tr *simTracing) (*meshPlant, error) {
	p := &meshPlant{sz: meshSizes(o)}
	sz, sp := p.sz, tr.spans
	traceCap := -1
	if tr.on {
		traceCap = 1 << 21
	}
	// Mains-powered heads beacon at a fixed fast rate so duty-cycled
	// leaves that sleep through most DIOs still catch one quickly.
	fastBeacon := &rpl.Config{Trickle: rpl.TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 1, K: 1 << 30}}
	p.spec = scenario.Spec{
		Seed: sz.PlantSeed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoCluster, Heads: sz.Heads, Members: sz.Members},
		Profiles: []core.Profile{
			{Name: "backbone", MAC: core.MACCSMA, Router: fastBeacon, WithCoAP: true},
			{Name: "leaf", MAC: core.MACLPL, LPL: mac.LPLConfig{WakeInterval: sz.Wake}},
		},
		Faults: scenario.FaultSpec{
			Churn:  scenario.NodeSel{Kind: "list", IDs: sz.ChurnHeads},
			MeanUp: sz.MeanUp, MinUp: sz.MinUp, MeanDown: sz.MeanDown, MinDown: sz.MinDown,
		},
		TraceCapacity: traceCap,
	}
	t0 := time.Now()
	sb := sp.begin("scenario.Build", 0, -1)
	p.b = scenario.Build(p.spec)
	sp.end(sb)
	d := p.b.D
	tc := time.Now()
	sc := sp.begin("core.RunUntilConverged", 0, -1)
	converged, convIn := d.RunUntilConverged(20 * time.Minute)
	sp.end(sc)
	p.convergeWall = time.Since(tc).Seconds()
	p.convergeVirtual = convIn.Seconds()
	if !converged {
		return nil, fmt.Errorf("mesh-probe: DODAG did not converge in 20 virtual minutes")
	}
	d.K.RunFor(sz.Settle) // downward routes (DAO) must exist before probes go down them
	p.heads = d.Nodes[1 : 1+sz.Heads]
	for _, h := range p.heads {
		h.Server.Resource("status").Get(func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
	}
	p.setupWall = time.Since(t0).Seconds()
	return p, nil
}

func meshOnce(o options, tr *simTracing) (*simRun, error) {
	p, err := meshSetup(o, tr)
	if err != nil {
		return nil, err
	}
	sz, spec, b, d, heads, sp := p.sz, p.spec, p.b, p.b.D, p.heads, tr.spans
	leaves := d.NodesByProfile("leaf")
	s := newSimRun()
	s.sizes = sz
	s.setupWall, s.convergeWall, s.convergeVirtual = p.setupWall, p.convergeWall, p.convergeVirtual

	// --- inputs from the seed: leaf reporting phases. The plant — the
	// topology, the channel's random stream and the churn schedule —
	// is part of the recorded size, not of the input. ---
	rng := rand.New(rand.NewSource(o.seed))
	var rtts []float64
	var probes, probeOK, probeFail int
	var pushes, pushDelivered int
	pushSeen := map[int]bool{}

	d.Root().Router.Handle(lowpan.ProtoRaw, func(_ radio.NodeID, payload []byte) {
		if len(payload) < 3 {
			return
		}
		idx := int(payload[0])<<16 | int(payload[1])<<8 | int(payload[2])
		if !pushSeen[idx] {
			pushSeen[idx] = true
			pushDelivered++
		}
	})

	b.ArmFaults()
	before := d.K.Stats()
	counters := newCounterDelta(meshCounters, d.Reg)
	traceBase := d.Trace.Summary()
	if tr.on {
		tr.prof.start()
	}
	s.cost.start()
	start := d.K.Now()
	stopAt := start + sz.Horizon
	radioOn0 := leafRadioOn(d, leaves)

	next := 0
	prober := d.K.Every(sz.ProbeEvery, 0, func() {
		if d.K.Now() >= stopAt {
			return
		}
		h := heads[next%len(heads)]
		next++
		probes++
		sent := d.K.Now()
		id := uint64(probes)
		psp := sp.begin("coap.Conn.Get", id, -1)
		d.Root().CoAP.Get(h.Addr(), "status", func(m *coap.Message, err error) {
			if err == nil && m.Code.IsSuccess() {
				probeOK++
				rtts = append(rtts, durMS(d.K.Now()-sent))
			} else {
				probeFail++
			}
		})
		sp.end(psp)
	})
	var pushers []*sim.Repeater
	for _, lf := range leaves {
		lf := lf
		phase := time.Duration(rng.Int63n(int64(sz.PushEvery)))
		push := func() {
			if d.K.Now() >= stopAt || !lf.Up() {
				return
			}
			idx := pushes
			pushes++
			_ = lf.Router.SendUp(lowpan.ProtoRaw, []byte{byte(idx >> 16), byte(idx >> 8), byte(idx), 0x5a})
		}
		d.K.Schedule(phase, func() {
			push()
			pushers = append(pushers, d.K.Every(sz.PushEvery, sz.PushEvery/4, push))
		})
	}
	b.Churn.Start()
	run := func(dur time.Duration) {
		sr := sp.begin("sim.Kernel.RunFor", 0, -1)
		d.K.RunFor(dur)
		sp.end(sr)
	}
	run(sz.Horizon)
	if tr.on {
		s.cost.stop()
		emitJourneys(s, d.Trace)
		s.cost.start()
	}
	b.Churn.Stop()
	prober.Stop()
	for _, p := range pushers {
		p.Stop()
	}
	// Drain: owed recoveries fire and every outstanding CON either
	// completes or exhausts its retransmissions.
	run(sz.Drain)
	s.cost.stop()
	if tr.on {
		shares, err := tr.prof.stop(wMesh)
		if err != nil {
			return nil, err
		}
		emitCPUShares(s.layer, shares)
	}
	after := d.K.Stats()
	s.nodeSimSeconds = float64(len(d.Nodes)) * (d.K.Now() - start).Seconds()

	emitMeshCounters(s, counters.delta(), before, after)
	sort.Float64s(rtts)
	s.exact["probe_rtt_p50_ms"] = percentile(rtts, 50)
	s.exact["probe_rtt_p99_ms"] = percentile(rtts, 99)
	unresolved := probes - probeOK - probeFail
	s.attempted = int64(probes + pushes)
	s.undelivered = int64(probeFail + unresolved + pushes - pushDelivered)
	s.exact["probes.sent"] = float64(probes)
	s.exact["probes.ok"] = float64(probeOK)
	s.exact["pushes.sent"] = float64(pushes)
	s.exact["pushes.delivered"] = float64(pushDelivered)
	s.exact["churn.crashes"] = float64(b.Churn.Crashes())
	s.exact["mac.leaf_duty_cycle"] = float64(leafRadioOn(d, leaves)-radioOn0) / float64(len(leaves)) / float64(d.K.Now()-start)

	if tr.on {
		emitTraceCounts(s, d.Trace.Summary(), traceBase)
		if path, err := sp.write(wMesh); err == nil {
			s.notes = append(s.notes, fmt.Sprintf("spans: %d written to %s", len(sp.s), path), sp.summary())
		}
		s.layer["radio.send_ns"] = radioSendNs(spec.Topo.Generate(sz.PlantSeed))
		s.layer["lowpan.codec_ns"], s.layer["lowpan.fragments_per_datagram"] = lowpanCodec([]int{4, 12})
	}

	s.check("probes-accounted", unresolved == 0, "%d probes: %d ok, %d failed, %d unresolved after the drain", probes, probeOK, probeFail, unresolved)
	s.check("churn-exercised", b.Churn.Crashes() > 0 && b.Churn.Recoveries() > 0, "%d crashes, %d recoveries", b.Churn.Crashes(), b.Churn.Recoveries())
	s.notes = append(s.notes, fmt.Sprintf("mesh-probe: %d/%d probes ok, %d/%d leaf pushes delivered, %d head crashes; converge %.0f virtual s",
		probeOK, probes, pushDelivered, pushes, b.Churn.Crashes(), s.convergeVirtual))
	return s, nil
}

// leafRadioOn sums the leaves' radio-on time (listen + rx + tx).
func leafRadioOn(d *core.Deployment, leaves []*core.Node) time.Duration {
	var on time.Duration
	for _, lf := range leaves {
		on += d.M.Energy().Ledger(int(lf.ID)).RadioOn()
	}
	return on
}
