package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
)

// citySize is the recorded size of city-sharded.
type citySize struct {
	Nodes        int           `json:"nodes"`
	SetupRepeats int           `json:"setup_repeats"`
	Density      float64       `json:"rgg_density"`
	PlantSeed    int64         `json:"plant_seed"`
	Stripes      int           `json:"stripes"`
	Heartbeat    time.Duration `json:"heartbeat_every_ns"`
	ProbeEvery   time.Duration `json:"probe_every_ns"`
	Targets      int           `json:"probe_targets"`
	Settle       time.Duration `json:"virtual_settle_ns"`
	Horizon      time.Duration `json:"virtual_horizon_ns"` // at runSeconds, per repeat
	Drain        time.Duration `json:"virtual_drain_ns"`
}

func citySizes(o options) citySize {
	s := citySize{
		Nodes: 600, SetupRepeats: 5, Density: 6, PlantSeed: 1501, Stripes: 4,
		Heartbeat: 60 * time.Second, ProbeEvery: 500 * time.Millisecond, Targets: 16,
		Settle: 40 * time.Second, Horizon: 300 * time.Second, Drain: 30 * time.Second,
	}
	if o.smoke {
		s.Nodes, s.Targets, s.Horizon = 96, 8, 30*time.Second
	}
	s.Horizon = time.Duration(float64(s.Horizon) * o.scale())
	return s
}

func runCity(o options) (*result, error) {
	r, err := runSimTwice(o, citySizes(o).SetupRepeats, cityOnce, func(o options) (float64, error) {
		p, err := citySetup(o, &simTracing{spans: newSpanLog(false)})
		if err != nil {
			return 0, err
		}
		return p.setupWall, nil
	})
	if err == nil {
		workers := float64(runtime.GOMAXPROCS(0))
		r.layer["sim.shard_core_util"] = r.e2e["cpu_s"] / (r.phaseWall * workers)
	}
	return r, err
}

// cityPlant is the built, converged striped fleet.
type cityPlant struct {
	sz      citySize
	spec    scenario.Spec
	sd      *core.ShardedDeployment
	targets []radio.NodeID
	workers int

	setupWall, convergeWall, convergeVirtual float64
}

func citySetup(o options, tr *simTracing) (*cityPlant, error) {
	p := &cityPlant{sz: citySizes(o), workers: runtime.GOMAXPROCS(0)}
	sz, sp := p.sz, tr.spans
	// HopLimit 255: a city-scale DODAG is far deeper than the 32-hop
	// default meant for room-sized fleets. DAOInterval: the joins' own
	// DAOs install the downward routes the probes use; a fleet-wide
	// refresh inside the run would be a second, synchronized storm.
	p.spec = scenario.Spec{
		Seed: sz.PlantSeed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoRGG, N: sz.Nodes, Density: sz.Density},
		Profiles: []core.Profile{{
			Name:     "city",
			WithCoAP: true,
			Router:   &rpl.Config{HopLimit: 255, DAOInterval: 10 * time.Minute},
		}},
		TraceCapacity: -1, // the sharded engine has no flight recorder
	}
	t0 := time.Now()
	sb := sp.begin("scenario.BuildSharded", 0, -1)
	p.sd = scenario.BuildSharded(p.spec, sz.Stripes).D
	sp.end(sb)
	sd := p.sd
	sd.G.SetWorkers(p.workers)
	tc := time.Now()
	sc := sp.begin("core.RunUntilConverged", 0, -1)
	converged, convIn := sd.RunUntilConverged(20 * time.Minute)
	sp.end(sc)
	p.convergeWall = time.Since(tc).Seconds()
	p.convergeVirtual = convIn.Seconds()
	if !converged {
		return nil, fmt.Errorf("city-sharded: DODAG did not converge in 20 virtual minutes (%.3f joined)", sd.ConvergedFraction())
	}
	sd.G.RunFor(sz.Settle) // downward routes must exist before probes go down them

	stride := max((sz.Nodes-1)/sz.Targets, 1)
	for i := 0; i < sz.Targets && 1+i*stride < sz.Nodes; i++ {
		p.targets = append(p.targets, radio.NodeID(1+i*stride))
	}
	for _, id := range p.targets {
		sd.Nodes[int(id)].Server.Resource("status").Get(
			func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
	}
	p.setupWall = time.Since(t0).Seconds()
	return p, nil
}

func cityOnce(o options, tr *simTracing) (*simRun, error) {
	p, err := citySetup(o, tr)
	if err != nil {
		return nil, err
	}
	sz, spec, sd, targets, workers, sp := p.sz, p.spec, p.sd, p.targets, p.workers, tr.spans
	s := newSimRun()
	s.sizes = sz
	s.setupWall, s.convergeWall, s.convergeVirtual = p.setupWall, p.convergeWall, p.convergeVirtual

	// --- inputs from the seed: heartbeat phases ---
	rng := rand.New(rand.NewSource(o.seed))
	var regs []*metrics.Registry
	for _, sh := range sd.Shards {
		regs = append(regs, sh.Reg)
	}
	before := sd.Stats()
	windows0, handoffs0 := sd.G.Windows(), sd.G.Handoffs()
	counters := newCounterDelta(meshCounters, regs...)
	if tr.on {
		tr.prof.start()
	}
	s.cost.start()
	start := sd.G.Now()
	stopAt := start + sz.Horizon

	// Heartbeats: each node pushes from its own stripe's kernel; the
	// per-stripe counters are written only by their owning kernel.
	sent := make([]int, sz.Stripes)
	delivered := 0
	sd.Root().Router.Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) { delivered++ })
	for _, nd := range sd.Nodes[1:] {
		nd := nd
		stripe := sd.StripeOf(nd.ID)
		k := sd.Shards[stripe].K
		beat := func() {
			if k.Now() >= stopAt || !nd.Up() {
				return
			}
			sent[stripe]++
			_ = nd.Router.SendUp(lowpan.ProtoRaw, []byte{0x15, byte(nd.ID >> 8), byte(nd.ID)})
		}
		phase := time.Duration(rng.Int63n(int64(sz.Heartbeat)))
		k.Schedule(phase, func() {
			beat()
			k.Every(sz.Heartbeat, sz.Heartbeat/4, beat)
		})
	}

	// Probes: the border router walks the stride-spread targets.
	rootK := sd.Shards[sd.StripeOf(0)].K
	var rtts []float64
	var probes, probeOK, probeFail int
	next := 0
	prober := rootK.Every(sz.ProbeEvery, 0, func() {
		if rootK.Now() >= stopAt {
			return
		}
		id := targets[next%len(targets)]
		next++
		probes++
		at := rootK.Now()
		sd.Root().CoAP.Get(sd.Nodes[int(id)].Addr(), "status", func(m *coap.Message, err error) {
			if err == nil && m.Code.IsSuccess() {
				probeOK++
				rtts = append(rtts, durMS(rootK.Now()-at))
			} else {
				probeFail++
			}
		})
	})
	sr := sp.begin("sim.ShardGroup.RunFor", 0, -1)
	sd.G.RunFor(sz.Horizon + sz.Drain)
	sp.end(sr)
	prober.Stop()
	s.cost.stop()
	if tr.on {
		shares, err := tr.prof.stop(wCity)
		if err != nil {
			return nil, err
		}
		emitCPUShares(s.layer, shares)
	}
	after := sd.Stats()
	s.nodeSimSeconds = float64(sz.Nodes) * (sd.G.Now() - start).Seconds()

	emitMeshCounters(s, counters.delta(), before, after)
	s.exact["sim.shard_windows"] = float64(sd.G.Windows() - windows0)
	s.exact["sim.shard_handoffs"] = float64(sd.G.Handoffs() - handoffs0)
	sort.Float64s(rtts)
	s.exact["probe_rtt_p50_ms"] = percentile(rtts, 50)
	s.exact["probe_rtt_p99_ms"] = percentile(rtts, 99)
	beats := 0
	for _, c := range sent {
		beats += c
	}
	// A CON outlives the drain when it is still retransmitting: the
	// probe neither succeeded nor failed inside the run, so it counts
	// as unanswered.
	unanswered := probes - probeOK
	s.attempted = int64(probes + beats)
	s.undelivered = int64(unanswered + beats - delivered)
	s.exact["probes.sent"] = float64(probes)
	s.exact["probes.ok"] = float64(probeOK)
	s.exact["heartbeats.sent"] = float64(beats)
	s.exact["heartbeats.delivered"] = float64(delivered)

	if tr.on {
		if path, err := sp.write(wCity); err == nil {
			s.notes = append(s.notes, fmt.Sprintf("spans: %d written to %s", len(sp.s), path), sp.summary())
		}
		s.layer["radio.send_ns"] = radioSendNs(spec.Topo.Generate(sz.PlantSeed))
		s.layer["lowpan.codec_ns"], s.layer["lowpan.fragments_per_datagram"] = lowpanCodec([]int{3, 12})
	}
	s.check("probes-answered", probeOK > 0, "%d probes: %d ok, %d failed, %d still retransmitting at the end", probes, probeOK, probeFail, probes-probeOK-probeFail)
	s.notes = append(s.notes, fmt.Sprintf("city-sharded: %d/%d probes ok, %d/%d heartbeats delivered; %d stripes on %d workers; converge %.0f virtual s",
		probeOK, probes, delivered, beats, sz.Stripes, workers, s.convergeVirtual))
	return s, nil
}
