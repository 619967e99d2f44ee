// Command iiotsim runs one emulated industrial-IoT deployment scenario
// and reports what happened: DODAG convergence, traffic, energy, and the
// effect of injected faults. It is the workbench for poking at the
// sensing-and-actuation layer without writing a program.
//
// Examples:
//
//	iiotsim -nodes 49 -topology grid -mac csma -duration 5m
//	iiotsim -nodes 25 -mac lpl -wake 500ms -kill 12@60s,7@90s -duration 4m
//	iiotsim -nodes 25 -profiles csma,lpl -duration 5m   # heterogeneous fleet
//	iiotsim -nodes 36 -shards 3 -duration 60s           # the same run striped over three kernels
//	iiotsim -scenario 'scn1;seed=42;topo=grid:n=16;hb=5s;churn=odd:up=25s:minup=20s:down=6s:mindown=5s'
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
	"iiotds/internal/store"
	"iiotds/internal/trace"
)

// unsetNode marks -trace-node as not given (any real node ID is small).
const unsetNode = 1 << 30

func main() {
	nodes := flag.Int("nodes", 25, "number of nodes (node 0 is the border router)")
	topology := flag.String("topology", "grid", "topology: grid, line, or random")
	spacing := flag.Float64("spacing", 15, "node spacing in meters (grid/line)")
	macKind := flag.String("mac", "csma", "MAC discipline: csma, lpl, or rimac")
	profiles := flag.String("profiles", "", "comma-separated device classes cycled over nodes, e.g. csma,lpl (node 0 gets the first class; overrides -mac)")
	wake := flag.Duration("wake", 500*time.Millisecond, "LPL wake interval")
	duration := flag.Duration("duration", 5*time.Minute, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	kills := flag.String("kill", "", "fault schedule, e.g. 12@60s,7@90s (node@time)")
	query := flag.Bool("query", true, "run a continuous AVG(temp) aggregation query")
	epoch := flag.Duration("epoch", 10*time.Second, "aggregation epoch")
	traceOut := flag.String("trace-out", "", "write the deployment's flight-recorder events (JSONL) to this file")
	traceCap := flag.Int("trace-capacity", 1<<16, "flight-recorder ring capacity (with -trace-out)")
	traceNode := flag.Int("trace-node", unsetNode, "restrict -trace-out to one node ID (-1 = network-wide events)")
	traceLayer := flag.String("trace-layer", "", "restrict -trace-out to a comma-separated set of layers: radio, mac, link, rpl, coap, fault, store")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file at the end")
	scenarioSpec := flag.String("scenario", "", "replay a scenario reproducer string (scn1;...) instead of building from flags; exits 1 if an invariant is violated")
	shards := flag.Int("shards", 1, "stripe the deployment over this many simulation kernels (DESIGN.md §9) and run them on up to GOMAXPROCS workers; the stripe count is a model parameter, so results are pinned per value, the worker count is not")
	storeShards := flag.Int("store-shards", 0, "attach a partitioned time-series store (DESIGN.md §10) at the border router with this many shards and ingest every node's reading each -epoch into it (0 = no storage tier)")
	storeModeFlag := flag.String("store-mode", "ap", "replication mode for -store-shards: ap (CRDT + anti-entropy) or cp (quorum)")
	flag.Parse()

	// Flags are outside input: refuse, before anything is built, what
	// would panic deep in a constructor or be silently ignored.
	switch {
	case *scenarioSpec != "":
		flag.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "scenario", "trace-out", "trace-node", "trace-layer":
			default:
				usage("-%s has no effect with -scenario (the reproducer string describes the whole run)", fl.Name)
			}
		})
	case *nodes < 2:
		usage("-nodes %d: need the border router and at least one node", *nodes)
	case *epoch <= 0:
		usage("-epoch %v: must be positive", *epoch)
	case *duration <= 0:
		usage("-duration %v: must be positive", *duration)
	case *spacing <= 0:
		usage("-spacing %v: must be positive", *spacing)
	case *shards < 1:
		usage("-shards %d: must be at least 1", *shards)
	case *shards > 1 && (*traceOut != "" || *metricsOut != ""):
		usage("-shards does not support -trace-out or -metrics-out yet: the sharded engine has no per-stripe recorders or registry merge")
	}

	// The export filter is shared by the flag-built and -scenario paths.
	filter := trace.All()
	if *traceNode != unsetNode {
		filter = filter.ByNode(int32(*traceNode))
	}
	if *traceLayer != "" {
		layers, err := parseLayers(*traceLayer)
		if err != nil {
			usage("%v", err)
		}
		filter = filter.ByLayers(layers...)
	}

	if *scenarioSpec != "" {
		runScenario(*scenarioSpec, *traceOut, filter)
		return
	}

	var positions radio.Topology
	switch *topology {
	case "grid":
		positions = radio.GridTopology(*nodes, *spacing)
	case "line":
		positions = radio.LineTopology(*nodes, *spacing)
	case "random":
		rng := sim.New(*seed).Rand()
		positions = radio.ConnectedRandomTopology(*nodes, 120, 120, 25, rng)
	default:
		usage("unknown topology %q", *topology)
	}

	// One device class per -profiles entry, cycled over the nodes; the
	// plain -mac flag is the one-class special case of the same path.
	classes := []string{*macKind}
	if *profiles != "" {
		classes = strings.Split(*profiles, ",")
		for i := range classes {
			classes[i] = strings.TrimSpace(classes[i])
		}
	}
	stack := core.Stack{Seed: *seed}
	seen := make(map[string]bool)
	for _, class := range classes {
		if seen[class] {
			continue
		}
		seen[class] = true
		p := core.Profile{Name: class}
		switch class {
		case "csma":
			p.MAC = core.MACCSMA
		case "lpl":
			p.MAC = core.MACLPL
			p.LPL.WakeInterval = *wake
		case "rimac":
			p.MAC = core.MACRIMAC
		default:
			usage("unknown device class %q (want csma, lpl, or rimac)", class)
		}
		stack.Profiles = append(stack.Profiles, p)
	}
	for i, pos := range positions {
		stack.Topology = append(stack.Topology, core.NodeSpec{
			Pos: pos, Profile: classes[i%len(classes)],
		})
	}

	if *traceOut != "" {
		stack.TraceCapacity = *traceCap
	}

	if *profiles != "" {
		fmt.Printf("deployment: %d nodes, %s topology, profiles %s (cycled), seed %d\n",
			*nodes, *topology, strings.Join(classes, ","), *seed)
	} else {
		fmt.Printf("deployment: %d nodes, %s topology, %s MAC, seed %d\n",
			*nodes, *topology, *macKind, *seed)
	}

	// One fleet on either engine: a single kernel, or the plane cut into
	// slabs with a kernel each (DESIGN.md §9). The run below is written
	// once against core.Fleet; sd is named only to describe the engine.
	var sd *core.ShardedDeployment
	var f *core.Fleet
	if *shards > 1 {
		sd = core.NewShardedStack(stack, *shards)
		sd.G.SetWorkers(runtime.GOMAXPROCS(0)) // execution policy only: same lines at any count
		f = &sd.Fleet
		fmt.Printf("engine: %s\n", sd)
	} else {
		f = &core.NewStack(stack).Fleet
	}

	ok, took := f.RunUntilConverged(5 * time.Minute)
	if !ok {
		fmt.Printf("WARNING: DODAG did not fully converge within 5 virtual minutes (%.1f%% joined)\n",
			100*f.ConvergedFraction())
	} else {
		fmt.Printf("DODAG converged in %v (virtual)\n", took)
	}

	// Fault schedule. On the sharded engine the crashes run on the
	// group's control timeline, so -kill works across stripe boundaries.
	if *kills != "" {
		inj := fault.NewInjector(f.Sched(), f.Ctl(), f, fault.NewLedger(f.Now()))
		for _, spec := range strings.Split(*kills, ",") {
			id, at, err := parseKill(spec, *nodes)
			if err != nil {
				usage("%v", err)
			}
			inj.CrashAt(f.Now()+at, id)
			fmt.Printf("fault: node %d crashes at +%v\n", id, at)
		}
	}

	// Workload: the query lives on the border router's kernel and each
	// sampler draws its noise from its own node's.
	if *query {
		scenario.StartAgg(f, agg.Query{ID: 1, Fn: agg.Avg, Attr: "temp", Epoch: *epoch, MaxDepth: 12},
			func(n *core.Node) float64 { return 20 + float64(n.ID%7) + f.Kernel(n.ID).Rand().Float64() },
			func(r agg.Result) {
				fmt.Printf("t=%8v  epoch %4d  %s(%s) = %6.2f over %d nodes\n",
					f.Kernel(0).Now().Truncate(time.Second), r.EpochNo, r.Query.Fn, r.Query.Attr, r.Value, r.Count)
			})
	}

	// Storage tier: the border router fronts a partitioned store and an
	// observe gateway, and every node pushes its reading up the DODAG
	// each epoch — the same hand-off (core.Backend) the scenario ingest
	// workload and F1 drive, on either engine.
	var be *core.Backend
	var feed *core.Push
	if *storeShards > 0 {
		mode, err := store.ParseMode(*storeModeFlag)
		if err != nil {
			usage("%v", err)
		}
		be = f.AttachBackend(store.ShardedConfig{
			Shards: *storeShards,
			Policy: store.ShardPolicy{Mode: mode, Replicas: 3},
		})
		defer be.Close()
		feed = be.Feed(*epoch, *epoch)
		fmt.Printf("store: %d shards × 3 replicas, %s mode, fed by %d nodes every %v\n",
			*storeShards, mode, *nodes-1, *epoch)
	}

	f.RunFor(*duration)

	// Report: one census for both engines, counters summed over stripes.
	fmt.Println("\n--- summary ---")
	joined := 0
	joules, worstJoules := 0.0, -1.0
	var worst radio.NodeID
	for _, n := range f.Nodes {
		if n.Up() && !n.Router.Partitioned() {
			joined++
		}
		j := f.Ledger(n.ID).TotalJoules()
		joules += j
		if j > worstJoules {
			worst, worstJoules = n.ID, j
		}
	}
	fmt.Printf("nodes joined at end: %d/%d\n", joined, *nodes)
	fmt.Printf("radio: tx=%0.f frames, rx=%0.f frames, collisions=%0.f\n",
		f.Counter("radio.tx_frames"), f.Counter("radio.rx_frames"), f.Counter("radio.collisions"))
	fmt.Printf("routing: %0.f DIOs, %0.f DAOs, %0.f parent switches, %0.f datagrams forwarded\n",
		f.Counter("rpl.dio_sent"), f.Counter("rpl.dao_sent"), f.Counter("rpl.parent_switches"), f.Counter("rpl.datagrams_forwarded"))
	fmt.Printf("energy: mean %.2f J/node, worst node %d at %.2f J\n",
		joules/float64(*nodes), worst, worstJoules)
	if sd != nil {
		fmt.Printf("sync: %d windows, %d cross-stripe handoffs\n", sd.G.Windows(), sd.G.Handoffs())
	}
	if be != nil {
		// Stop producing, then let in-flight frames land, the final batch
		// ack, and AP anti-entropy finish a round.
		feed.Stop()
		f.RunFor(2 * time.Second)
		be.Flush()
		f.RunFor(5 * time.Second)
		acked, failed := be.Batches()
		fmt.Printf("store: %d/%d readings delivered, %d points ingested, batches acked=%d failed=%d, converged=%v\n",
			be.Delivered(), feed.Sent(), be.Store.Stats().TotalPoints(), acked, failed, be.Store.Converged())
	}

	exportTrace(f.Recorder(), *traceOut, filter)
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, func(w *os.File) error {
			return f.Medium(0).Registry().WritePrometheus(w)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "iiotsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: Prometheus-text snapshot in %s\n", *metricsOut)
	}
}

// usage reports a bad invocation in one line and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "iiotsim: "+format+"\n", args...)
	os.Exit(2)
}

// parseKill parses one node@time fault spec.
func parseKill(spec string, nodes int) (radio.NodeID, sim.Time, error) {
	parts := strings.SplitN(strings.TrimSpace(spec), "@", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad kill spec %q (want node@time)", spec)
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil || id <= 0 || id >= nodes {
		return 0, 0, fmt.Errorf("bad node in %q", spec)
	}
	at, err := time.ParseDuration(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad time in %q", spec)
	}
	return radio.NodeID(id), at, nil
}

// runScenario replays one scenario reproducer string — the format the
// property harness (internal/scenario) stamps on every run and shrinks
// failures down to — and reports the verdict. The run is fully
// deterministic, so a reproducer pasted from a CI failure replays the
// exact same fault schedule and violations locally. With -trace-out the
// run's flight-recorder stream is exported (filtered) for iiottrace.
func runScenario(line, traceOut string, filter trace.Filter) {
	spec, err := scenario.Parse(line)
	if err != nil {
		usage("%v", err)
	}
	fmt.Printf("scenario: %s\n", scenario.Format(spec))
	res := scenario.Run(spec, nil)
	fmt.Printf("converged: %v (in %v)\n", res.Converged, res.ConvergeIn)
	fmt.Printf("churn: %d crashes, %d recoveries\n", res.Crashes, res.Recoveries)
	fmt.Printf("workload: probes %d ok / %d failed, pushes %d/%d delivered, %d agg epochs, heartbeats %d ok / %d sent\n",
		res.ProbeOK, res.ProbeFail, res.PushDelivered, res.Pushes, res.AggEpochs, res.HeartbeatOK, res.Heartbeats)
	if res.IngestSent > 0 {
		fmt.Printf("store: %d/%d readings delivered, batches acked=%d failed=%d, converged=%v\n",
			res.IngestDelivered, res.IngestSent, res.IngestAcked, res.IngestFailed, res.StoreConverged)
	}
	exportTrace(res.Trace, traceOut, filter)
	if !res.Failed() {
		fmt.Println("PASS: all invariants held")
		return
	}
	fmt.Printf("FAIL: %d invariant violation(s)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

// exportTrace writes rec's events passing filter to path as JSONL; an
// empty path means no export was asked for.
func exportTrace(rec *trace.Recorder, path string, filter trace.Filter) {
	if path == "" {
		return
	}
	if err := writeFileWith(path, func(w *os.File) error { return rec.WriteJSONL(w, filter) }); err != nil {
		fmt.Fprintf(os.Stderr, "iiotsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d events recorded (%d dropped by the ring), filtered dump in %s\n",
		rec.Total(), rec.Dropped(), path)
}

// parseLayers parses a comma-separated -trace-layer value ("mac,rpl")
// into trace layers.
func parseLayers(spec string) ([]trace.Layer, error) {
	var layers []trace.Layer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		l, ok := trace.ParseLayer(name)
		if !ok {
			return nil, fmt.Errorf("unknown layer %q (want radio, mac, link, rpl, coap, fault, or store)", name)
		}
		layers = append(layers, l)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("empty -trace-layer value %q", spec)
	}
	return layers, nil
}

// writeFileWith creates path, hands it to fn, and closes it, reporting
// the first error.
func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
