package exp

import (
	"fmt"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/trial"
)

// e15BruteForce runs E15 on the radio's reference O(N) rescan per send
// instead of the kept link lists. Only the tests' shared matrix sets it, so
// that TestShardWorkerInvariance can check the table against the oracle.
var e15BruteForce = false

// e15Stripes is the stripe count — a MODEL parameter (it decides which
// frames cross a shard barrier), fixed so every E15 row names one
// reproducible system. The stripes run on up to one worker each, held
// to GOMAXPROCS (sim.ShardGroup.Workers); the worker count is execution
// policy and never reaches a table.
const e15Stripes = 8

// e15Params sizes one city-scale run.
type e15Params struct {
	n        int
	seed     int64
	converge time.Duration // DODAG convergence budget
	soak     time.Duration // workload phase
	hbEvery  time.Duration // per-node raw heartbeat period
	prEvery  time.Duration // root CoAP probe period
	probes   int           // deterministic probe-target subset size
}

// e15Run is one city-scale measurement.
type e15Run struct {
	nodes      int
	convFrac   float64
	convIn     time.Duration
	converged  bool
	heartbeats int
	delivered  int
	probeOK    int
	probeFail  int
	handoffs   uint64
	windows    uint64
	simFor     time.Duration // total virtual time advanced
	wall       time.Duration // wall clock for the same span (Notes only)
	workers    int           // stripe workers the run used (Notes only)
}

// runE15 builds an RGG fleet striped over e15Stripes kernels, converges
// it under a budget, then drives a CoAP probe + raw heartbeat workload
// through it. Every row cell is deterministic (virtual-time protocol
// outcomes); wall-clock throughput goes to Table.Notes.
func runE15(tr *trial.Trial, p e15Params) e15Run {
	// HopLimit 255: at city scale the DODAG is ~40-100 hops deep, far
	// past the 32-hop default meant for room-sized fleets.
	b := scenario.BuildSharded(scenario.Spec{
		Seed: p.seed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoRGG, N: p.n, Density: 6},
		Profiles: []core.Profile{{
			Name:     "city",
			WithCoAP: true,
			Router:   &rpl.Config{HopLimit: 255},
		}},
	}, e15Stripes)
	sd := b.D
	sd.G.SetWorkers(e15Stripes)
	if e15BruteForce {
		for _, sh := range sd.Shards {
			sh.M.SetBruteForce(true)
		}
	}
	tr.Observe(sd.Kernels()...)

	out := e15Run{nodes: p.n, workers: sd.G.Workers()}
	start := time.Now()
	simStart := sd.G.Now()
	out.converged, out.convIn = sd.RunUntilConverged(p.converge)
	out.convFrac = sd.ConvergedFraction()

	// Heartbeat workload: every node raw-pushes up the DODAG from its
	// own stripe's kernel.
	sd.Root().Router.Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) { out.delivered++ })
	hb := sd.StartPush(sd.Nodes[1:], lowpan.ProtoRaw, p.hbEvery, p.hbEvery/4, func(n *core.Node) []byte {
		if !n.Up() {
			return nil
		}
		return []byte{0x15, byte(n.ID)}
	})

	// CoAP probe workload: the root walks a fixed stride-spread subset
	// of the fleet round-robin — nearby and tens-of-hops-away targets.
	stride := (p.n - 1) / p.probes
	if stride < 1 {
		stride = 1
	}
	var targets []radio.NodeID
	for i := 0; i < p.probes && 1+i*stride < p.n; i++ {
		targets = append(targets, radio.NodeID(1+i*stride))
	}
	probe := scenario.StartProbe(&sd.Fleet, targets, p.prEvery)

	sd.G.RunFor(p.soak)
	hb.Stop()
	probe.Stop()

	out.heartbeats = hb.Sent()
	out.probeOK, out.probeFail = probe.OK, probe.Fail
	out.handoffs = sd.G.Handoffs()
	out.windows = sd.G.Windows()
	out.simFor = time.Duration(sd.G.Now() - simStart)
	out.wall = time.Since(start)
	return out
}

// E15CityScale tests §IV scalability in size at deployment scale: a
// 10k-node random-geometric city fleet striped over eight simulation
// kernels, converging one DODAG and carrying CoAP + heartbeat traffic
// across stripe boundaries. The deterministic row reports how much of
// the fleet becomes routable and what the workload delivers; the
// engine's wall-clock throughput (nodes-simulated-per-wall-second, the
// BENCH_spatial.json figure) is recorded in Notes since it is a
// property of the machine, not the model.
func E15CityScale(s Scale) *Table {
	params := []e15Params{
		{n: 192, seed: 1601, converge: 4 * time.Minute, soak: 90 * time.Second,
			hbEvery: 15 * time.Second, prEvery: 5 * time.Second, probes: 8},
		{n: 384, seed: 1602, converge: 4 * time.Minute, soak: 90 * time.Second,
			hbEvery: 15 * time.Second, prEvery: 5 * time.Second, probes: 8},
	}
	if s == Full {
		params = []e15Params{
			{n: 10000, seed: 1610, converge: 20 * time.Minute, soak: 3 * time.Minute,
				hbEvery: 60 * time.Second, prEvery: 5 * time.Second, probes: 32},
		}
	}

	t := &Table{
		ID:      "E15",
		Title:   "City-scale fleet: sharded emulation of a 10k-node RGG deployment",
		Claim:   "§IV: scalability in size is a defining IIoT property — behavior must be testable at deployment scale, not extrapolated from 100-node rooms",
		Columns: []string{"nodes", "stripes", "converged", "conv frac", "conv time", "heartbeats", "probe ok/fail", "handoffs", "windows"},
	}

	rows, rs := trial.Sweep(params, func(tr *trial.Trial, p e15Params) e15Run {
		return runE15(tr, p)
	})
	t.Stats = rs
	for _, r := range rows {
		t.AddRow(di(r.nodes), di(e15Stripes),
			fmt.Sprintf("%v", r.converged),
			f3(r.convFrac),
			fmt.Sprintf("%.0f s", r.convIn.Seconds()),
			fmt.Sprintf("%d/%d", r.delivered, r.heartbeats),
			fmt.Sprintf("%d/%d", r.probeOK, r.probeFail),
			fmt.Sprintf("%d", r.handoffs),
			fmt.Sprintf("%d", r.windows))
		rate := float64(r.nodes) * r.simFor.Seconds() / max(r.wall.Seconds(), 1e-9)
		t.Note(fmt.Sprintf("rate_n%d", r.nodes),
			fmt.Sprintf("%.0f node-sim-seconds/wall-second (sim %.0f s in wall %.2f s)",
				rate, r.simFor.Seconds(), r.wall.Seconds()))
	}

	last := rows[len(rows)-1]
	t.Note("engine", fmt.Sprintf("stripes=%d workers=%d", e15Stripes, last.workers))
	hbPct := 0.0
	if last.heartbeats > 0 {
		hbPct = 100 * float64(last.delivered) / float64(last.heartbeats)
	}
	t.Finding = fmt.Sprintf(
		"a %d-node RGG fleet striped over %d kernels converged %.1f%% of the fleet in %.0f s of virtual time and answered %d/%d cross-stripe CoAP probes; the raw per-node uplink delivered %d of %d heartbeats (%.1f%%) — at this scale the funnel collapse E2/E4 measure in the small (§IV-A) dominates the uplink, observed under test rather than extrapolated",
		last.nodes, e15Stripes, 100*last.convFrac, last.convIn.Seconds(),
		last.probeOK, last.probeOK+last.probeFail,
		last.delivered, last.heartbeats, hbPct)
	return t
}
