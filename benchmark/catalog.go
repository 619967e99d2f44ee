package main

// This file is the benchmark's catalogue: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the end-to-end metric each is expected to move. BENCHMARK.json is the
// driver-facing projection of it (bench_test.go checks they agree);
// README.md is the prose projection.

// runSeconds is the measured-phase length every recorded size is tuned
// to on the 2-CPU reference host. Sizes are fixed: they are never
// scaled by the host they run on, only by an explicit -seconds.
const runSeconds = 15

// Workload names. Later issues cite them; they are fixed.
const (
	wFig1  = "fig1-uplink"
	wMesh  = "mesh-probe"
	wCity  = "city-sharded"
	wGW    = "gw-fanout"
	wStore = "store-fleet"
)

type workloadInfo struct {
	Name string
	Why  string // one line, <= 200 chars (BENCHMARK.json)
	Loop string // open/closed loop statement for the README and the output
	run  func(options) (*result, error)
}

var workloads = []workloadInfo{
	{
		Name: wFig1,
		Why:  "whole Fig. 1 path in virtual time on one kernel: 1000-node CSMA mesh -> border router -> store appender + inline gateway; sim/radio/mac/rpl do ~99% of host work",
		Loop: "open loop in virtual time: every node samples each 60 s (+-15 s); 1 load goroutine (the kernel)",
		run:  runFig1,
	},
	{
		Name: wMesh,
		Why:  "request/response beside push, LPL beside CSMA, repair beside steady state: CON probes down a churned cluster plant; store and gateway absent",
		Loop: "open loop in virtual time: 1 CON GET/s from the border router, every leaf pushes each 30 s; 1 load goroutine (the kernel)",
		run:  runMesh,
	},
	{
		Name: wCity,
		Why:  "only workload where sim.ShardGroup barriers, cross-stripe radio announcements and the spatial grid at scale do the work: 600-node RGG over 4 stripes, nproc workers",
		Loop: "open loop in virtual time: 60 s heartbeats per node, CON probes over 16 stride-spread targets; nproc stripe workers",
		run:  runCity,
	},
	{
		Name: wGW,
		Why:  "coap server/notify pool and gateway coalescer/cache do all the work at 200k observers in real time; sim absent",
		Loop: "open loop at 20/40/80 publishes/s (1 publisher + 1 reader/churn goroutine), then CON, burst, and a closed-loop capacity step (1 outstanding round per resource)",
		run:  runGW,
	},
	{
		Name: wStore,
		Why:  "store is the whole cost: 5k interleaved series defeat the appender caches, default 1 s anti-entropy runs while data grows; open loop removes closed-loop feedback",
		Loop: "open loop: 5 ticks/s x 5 000 devices = 25k readings/s (1 producer goroutine) beside 500 Range reads/s (1 reader goroutine)",
		run:  runStore,
	},
}

func workloadByName(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eMetric is one end-to-end metric. A workload reports only the
// metrics native to it, as measured.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the regression bound of a host-time metric. A Virtual
	// metric has none: at one seed it must repeat exactly, run to run
	// and commit to commit, unless the modelled network itself changed.
	Bound   float64
	Virtual bool
	// Driver puts the metric in BENCHMARK.json's end_to_end list, which
	// the driver reads from every workload and gates: it must be native
	// to all five and repeat within its bound on a host whose speed
	// drifts (README, "How steady"). The others reach the driver in the
	// per_layer list — printed by the traced run, never gated by it —
	// and are gated here, by -compare.
	Driver bool
	Native []string
	Def    string
}

var (
	allWorkloads = []string{wFig1, wMesh, wCity, wGW, wStore}
	simWorkloads = []string{wFig1, wMesh, wCity}
)

var e2eMetrics = []e2eMetric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true, Native: allWorkloads,
		Def: "median wall time of the workload's set-up, repeated in-process: build + DODAG convergence + settle (sim), build + 200k-observer registration storm (gw-fanout), store construction + the fleet's first report (store-fleet)"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.10, Native: allWorkloads,
		Def: "process user+sys CPU-seconds over the measured phase; the work is fixed, so this is cost"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Driver: true, Native: allWorkloads,
		Def: "ru_maxrss of the workload's own process"},
	{Name: "delivered_share", Unit: "share", Better: "higher", Bound: 0.06, Driver: true, Native: allWorkloads,
		Def: "1 - failed_share: delivered readings, answered probes, notifications neither dropped nor missing, acked batches and served reads, over attempts"},
	{Name: "sim_rate", Unit: "nodesim_s/s", Better: "higher", Bound: 0.10, Native: simWorkloads,
		Def: "node-simulated-seconds per wall second over the measured phase"},
	{Name: "uplink_ack_p50_ms", Unit: "ms", Better: "lower", Virtual: true, Native: []string{wFig1},
		Def: "virtual time from a node's sample to the store acking the batch that holds it (p50)"},
	{Name: "uplink_ack_p99_ms", Unit: "ms", Better: "lower", Virtual: true, Native: []string{wFig1},
		Def: "same, p99"},
	{Name: "uplink_observer_p99_ms", Unit: "ms", Better: "lower", Virtual: true, Native: []string{wFig1},
		Def: "virtual time from a node's sample to the observer send that carries it, through the coalescer (p99)"},
	{Name: "probe_rtt_p50_ms", Unit: "ms", Better: "lower", Virtual: true, Native: []string{wMesh, wCity},
		Def: "virtual round-trip of successful CON GET probes (p50); failures count in delivered_share"},
	{Name: "probe_rtt_p99_ms", Unit: "ms", Better: "lower", Virtual: true, Native: []string{wMesh, wCity},
		Def: "same, p99"},
	{Name: "notify_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Native: []string{wGW},
		Def: "publish due time to each observer's Transport.Send at the 0.5 M notifications/s step, first second discarded (p50)"},
	{Name: "notify_capacity_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Native: []string{wGW},
		Def: "notifications delivered per second over the closed-loop step (one outstanding round per resource)"},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Native: []string{wStore},
		Def: "tick due time to the ack of the batch flush that carries the tick (p50); four fifths of it is the flush schedule"},
	{Name: "range_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Native: []string{wStore},
		Def: "open-loop Range read, due time to callback (p50)"},
}

func e2eByName(name string) *e2eMetric {
	for i := range e2eMetrics {
		if e2eMetrics[i].Name == name {
			return &e2eMetrics[i]
		}
	}
	return nil
}

func (m *e2eMetric) nativeOn(workload string) bool {
	for _, w := range m.Native {
		if w == workload {
			return true
		}
	}
	return false
}

// move says which end-to-end metric a layer metric should move, and on
// which workloads.
type move struct {
	E2E       string
	Workloads []string
}

// layerMetric is one per-layer metric. The layer is the prefix before
// the first dot (a package name, or go/loadgen/trace for the harness).
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	// Exact marks counts that repeat exactly at one seed on the sim
	// workloads; -compare demands an exact match for them.
	Exact bool
	Moves []move
}

func mv(e2e string, w ...string) move { return move{E2E: e2e, Workloads: w} }

var layerMetrics = []layerMetric{
	// sim
	{Name: "sim.events_fired", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "sim.canceled_share", Unit: "share", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "sim.max_heap_depth", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "sim.mallocs_per_event", Unit: "count", Better: "lower", Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "sim.shard_windows", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", wCity)}},
	{Name: "sim.shard_handoffs", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", wCity)}},
	{Name: "sim.shard_core_util", Unit: "share", Better: "higher", Moves: []move{mv("sim_rate", wCity)}},
	// radio
	{Name: "radio.tx_frames", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "radio.rx_per_tx", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "radio.collisions", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wFig1)}},
	{Name: "radio.dropped_loss", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wFig1)}},
	{Name: "radio.send_ns", Unit: "ns", Better: "lower", Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "radio.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", simWorkloads...)}},
	// mac
	{Name: "mac.retries", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p50_ms", wFig1), mv("probe_rtt_p50_ms", wMesh)}},
	{Name: "mac.tx_failed", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wMesh)}},
	{Name: "mac.strobes", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p50_ms", wMesh)}},
	{Name: "mac.backoffs", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p50_ms", wFig1)}},
	{Name: "mac.leaf_duty_cycle", Unit: "share", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p50_ms", wMesh)}},
	{Name: "mac.virt_ms_per_journey", Unit: "ms", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p50_ms", wFig1), mv("probe_rtt_p50_ms", wMesh)}},
	{Name: "mac.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", wFig1, wMesh)}},
	// link, lowpan, netbuf
	{Name: "link.virt_ms_per_journey", Unit: "ms", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p99_ms", wFig1)}},
	{Name: "link.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", wFig1)}},
	{Name: "lowpan.fragments_per_datagram", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p99_ms", wFig1)}},
	{Name: "lowpan.codec_ns", Unit: "ns", Better: "lower", Moves: []move{mv("sim_rate", wFig1)}},
	{Name: "lowpan.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", wFig1)}},
	{Name: "netbuf.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", wFig1)}},
	// rpl
	{Name: "rpl.converge_virtual_s", Unit: "s", Better: "lower", Exact: true, Moves: []move{mv("setup_s", simWorkloads...)}},
	{Name: "rpl.converge_wall_s", Unit: "s", Better: "lower", Moves: []move{mv("setup_s", simWorkloads...)}},
	{Name: "rpl.dio_sent", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("sim_rate", simWorkloads...)}},
	{Name: "rpl.dao_sent", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p99_ms", wMesh, wCity)}},
	{Name: "rpl.parent_switches", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p99_ms", wMesh, wCity)}},
	{Name: "rpl.datagrams_forwarded", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p99_ms", wFig1)}},
	{Name: "rpl.no_route_drops", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wFig1, wMesh)}},
	{Name: "rpl.link_drops", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wFig1, wMesh)}},
	{Name: "rpl.hops_p50", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p99_ms", wFig1)}},
	{Name: "rpl.virt_ms_per_journey", Unit: "ms", Better: "lower", Exact: true, Moves: []move{mv("uplink_ack_p99_ms", wFig1), mv("probe_rtt_p99_ms", wMesh)}},
	{Name: "rpl.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", simWorkloads...)}},
	// coap
	{Name: "coap.retransmits", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p99_ms", wMesh)}},
	{Name: "coap.timeouts", Unit: "count", Better: "lower", Exact: true, Moves: []move{mv("delivered_share", wMesh)}},
	{Name: "coap.virt_ms_per_journey", Unit: "ms", Better: "lower", Exact: true, Moves: []move{mv("probe_rtt_p99_ms", wMesh)}},
	{Name: "coap.register_per_s", Unit: "1/s", Better: "higher", Moves: []move{mv("setup_s", wGW)}},
	{Name: "coap.deregister_per_s", Unit: "1/s", Better: "higher", Moves: []move{mv("cpu_s", wGW)}},
	{Name: "coap.notify_dropped", Unit: "count", Better: "lower", Moves: []move{mv("delivered_share", wGW)}},
	{Name: "coap.leaked_observers", Unit: "count", Better: "lower", Moves: []move{mv("peak_rss_mb", wGW)}},
	{Name: "coap.get_p50_us", Unit: "us", Better: "lower", Moves: []move{mv("cpu_s", wGW)}},
	{Name: "coap.con_notify_p50_ms", Unit: "ms", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW)}},
	{Name: "coap.udp_notify_p50_ms", Unit: "ms", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW)}},
	{Name: "coap.codec_ns", Unit: "ns", Better: "lower", Moves: []move{mv("notify_capacity_per_s", wGW)}},
	{Name: "coap.cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("cpu_s", wGW)}},
	// gateway
	{Name: "gateway.publish_call_p50_us", Unit: "us", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW)}},
	{Name: "gateway.coalesced_share", Unit: "share", Better: "higher", Moves: []move{mv("notify_capacity_per_s", wGW)}},
	{Name: "gateway.http_last_p50_us", Unit: "us", Better: "lower", Moves: []move{mv("cpu_s", wGW)}},
	{Name: "gateway.notify_p99_ms_at_0.25M", Unit: "ms", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW)}},
	{Name: "gateway.notify_p99_ms_at_0.5M", Unit: "ms", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW)}},
	{Name: "gateway.notify_p99_ms_at_1M", Unit: "ms", Better: "lower", Moves: []move{mv("notify_capacity_per_s", wGW)}},
	{Name: "gateway.cache_entries", Unit: "count", Better: "lower", Moves: []move{mv("peak_rss_mb", wGW)}},
	{Name: "gateway.inline_publish_ns", Unit: "ns", Better: "lower", Moves: []move{mv("uplink_observer_p99_ms", wFig1)}},
	// store, gossip
	{Name: "store.append_ns_per_point", Unit: "ns", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.flush_call_ms", Unit: "ms", Better: "lower", Moves: []move{mv("ingest_ack_p50_ms", wStore)}},
	{Name: "store.tick_busy_p50_ms", Unit: "ms", Better: "lower", Moves: []move{mv("ingest_ack_p50_ms", wStore)}},
	{Name: "store.tick_p99_ms", Unit: "ms", Better: "lower", Moves: []move{mv("ingest_ack_p50_ms", wStore)}},
	{Name: "store.ingest_batches", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.points_per_batch", Unit: "count", Better: "higher", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.ap_merge_points", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.cp_unavail_ops", Unit: "count", Better: "lower", Moves: []move{mv("delivered_share", wStore)}},
	{Name: "store.ooo_points", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.bytes_per_point", Unit: "B/point", Better: "lower", Moves: []move{mv("peak_rss_mb", wStore)}},
	{Name: "store.compactions", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.range_p99_ms", Unit: "ms", Better: "lower", Moves: []move{mv("range_p50_us", wStore)}},
	{Name: "store.converge_s", Unit: "s", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.engine_append_ns", Unit: "ns", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "store.inline_append_ns", Unit: "ns", Better: "lower", Moves: []move{mv("uplink_ack_p50_ms", wFig1)}},
	{Name: "gossip.rounds", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "gossip.bytes_sent", Unit: "B", Better: "lower", Moves: []move{mv("cpu_s", wStore)}},
	{Name: "gossip.bytes_per_point", Unit: "B/point", Better: "lower", Moves: []move{mv("cpu_s", wStore), mv("peak_rss_mb", wStore)}},
	// harness
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: []move{mv("notify_p50_ms", wGW), mv("ingest_ack_p50_ms", wStore)}},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: []move{mv("cpu_s", allWorkloads...)}},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: []move{mv("cpu_s", allWorkloads...)}},
	{Name: "go.runtime_cpu_share", Unit: "share", Better: "lower", Moves: []move{mv("cpu_s", allWorkloads...)}},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: []move{mv("sim_rate", wFig1, wMesh)}},
	{Name: "trace.ring_coverage", Unit: "share", Better: "higher", Moves: []move{mv("uplink_ack_p99_ms", wFig1)}},
}

// movesOn reports whether the metric is expected to move some
// end-to-end metric on the workload.
func (m *layerMetric) movesOn(workload string) bool {
	for _, mv := range m.Moves {
		for _, w := range mv.Workloads {
			if w == workload {
				return true
			}
		}
	}
	return false
}

func layerByName(name string) *layerMetric {
	for i := range layerMetrics {
		if layerMetrics[i].Name == name {
			return &layerMetrics[i]
		}
	}
	return nil
}
