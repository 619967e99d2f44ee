package archtest

// protocolLayers are the packages whose code runs inside the emulated
// stack. They report through the flight recorder and the metrics
// registry, never by printing: a print is invisible to the trace and
// breaks the runner's byte-identical output.
var protocolLayers = []string{
	"internal/netbuf", "internal/radio", "internal/mac", "internal/link",
	"internal/lowpan", "internal/rpl", "internal/coap", "internal/agg",
	"internal/trace", "internal/fault", "internal/core", "internal/scenario",
	"internal/gossip", "internal/store",
}

// dataPlaneTypes are the trace event types tied to one packet: an Emit of
// one must thread the packet's journey ID through.
var dataPlaneTypes = []string{
	"RadioTx", "RadioDeliver", "RadioLoss", "RadioCollision",
	"MACTx", "MACBackoff", "MACRetry", "MACTxFail", "MACStrobe",
	"LinkAck", "LinkDrop",
	"RPLNoRoute", "RPLForward", "RPLDeliver",
	"CoAPRequest", "CoAPResponse", "CoAPRetransmit", "CoAPTimeout",
}

// controlPlaneTypes are journey-less by design: wake-ups, beacons, the
// routing control messages, RNFD, faults and the store.
var controlPlaneTypes = []string{
	"MACWakeup", "MACBeacon",
	"RPLDIOSent", "RPLDIORecv", "RPLDAOSent", "RPLParentSwitch", "RPLDetach",
	"RNFDSentinel", "RNFDSuspect", "RNFDSuspectHeard", "RNFDVerdict",
	"FaultCrash", "FaultRecover", "FaultPartition", "FaultHeal", "FaultLink",
	"StoreAppend", "StoreFlush", "StoreCompact", "StoreAntiEntropy", "StoreUnavail",
}

// peerDecoders read bytes another node sent; each must have a fuzz target.
var peerDecoders = []decoder{
	{"internal/lowpan", "Adaptation.Feed"},
	{"internal/mac", "decode"},
	{"internal/rpl", "decodeDIO"},
	{"internal/rpl", "decodeDAO"},
	{"internal/rpl", "decodeSuspect"},
	{"internal/rpl", "decodeVerdict"},
	{"internal/agg", "Node.onFlood"},
	{"internal/agg", "Node.onPSR"},
	{"internal/coap", "Unmarshal"},
	{"internal/coap", "reqScratch.decode"},
	{"internal/security", "Channel.Open"},
	{"internal/security", "Channel.OpenBuffer"},
	{"internal/core", "Backend.handOff"},
	{"internal/adapter", "Mux.Decode"},
	{"internal/adapter", "emulator.Apply"},
	{"internal/gossip", "parseFrame"},
	{"internal/store", "parseRPC"},
	{"internal/store", "decodePoints"},
	{"internal/store", "apState.Merge"},
	{"internal/store", "apState.Delta"},
}

// methods returns "T.M" for every type and method name given.
func methods(types []string, names ...string) []string {
	var out []string
	for _, t := range types {
		for _, n := range names {
			out = append(out, t+"."+n)
		}
	}
	return out
}

// rules is the table TestRules holds the tree to. A rule that guards a
// whole package reads its tests too, so a test cannot grow back what the
// package deleted.
var rules = []rule{
	// Stays deleted: each of these was replaced, and the replacement is
	// the only copy.
	{
		name:  "predecessors-stay-deleted",
		files: all("..."),
		check: deleted("CodecJSON", "NewTSDB", "RunSwarm", "NewSyncBroker", "WithBackend", "PublishObservation", "LayerBus", "Switchboard", "LoopTransport"),
		bad:   plant{"internal/core/swarm.go", "func RunSwarm() {}"},
	},
	{
		name:  "core-config-stays-deleted",
		files: all("internal/core"),
		check: deleted("Config"),
		bad:   plant{"internal/core/config.go", "type Config struct{}"},
	},
	{
		name:  "retired-selectors-stay-unused",
		files: all("..."),
		check: none(use("core.Config"), use("bus.NewBroker")),
		bad:   plant{"cmd/iiotsim/old.go", "var b = bus.NewBroker()"},
	},
	{
		name:  "bus-package-stays-deleted",
		check: noDir("internal/bus"),
		bad:   plant{"internal/bus/bus.go", "package bus"},
	},
	{
		name:  "fault-holds-no-churn-engine",
		files: all("internal/fault/..."),
		check: deleted("ChurnConfig", "GELink", "Churn"),
		bad:   plant{"internal/fault/churn.go", "type GELink struct{}"},
	},
	{
		name:  "random-topologies-stay-deleted",
		files: all("internal/radio/..."),
		check: deleted("RandomTopology", "ConnectedRandomTopology", "Topology.Bounds"),
		bad:   plant{"internal/radio/topology.go", "func (t Topology) Bounds() {}"},
	},
	{
		name:  "iiotsim-builds-its-stack-from-a-spec",
		files: src("cmd/iiotsim"),
		check: none(literal("core.Stack", "core.Profile")),
		bad:   plant{"cmd/iiotsim/main.go", "var s = core.Stack{}"},
	},
	{
		name:  "exp-builds-fleets-from-a-spec",
		files: src("internal/exp"),
		check: none(literal("core.Stack")),
		bad:   plant{"internal/exp/e5.go", "var s = core.Stack{}"},
	},
	{
		name:  "exp-keeps-no-runner-copy",
		files: all("internal/exp"),
		check: deleted("Trial", "RunStats", "SetParallelism", "Parallelism", "SetTraceSink", "RunTrials", "Sweep",
			"SetShardWorkers", "shardWorkers", "e15Workers"),
		bad: plant{"internal/exp/runner.go", "func SetShardWorkers(n int) {}"},
	},
	{
		name:  "router-defaults-live-in-rpl",
		files: all("internal/core"),
		check: deleted("Stack.Router"),
		bad:   plant{"internal/core/profile.go", "type Stack struct{ Router int }"},
	},
	{
		name:  "injector-schedules-through-the-kernel",
		files: all("internal/fault/..."),
		check: deleted("Injector.*At"),
		bad:   plant{"internal/fault/fault.go", "func (inj *Injector) CrashAt() {}"},
	},
	{
		name:  "ap-op-log-stays-deleted",
		files: all("internal/store/..."),
		check: deleted("apLog", "apOp"),
		bad:   plant{"internal/store/ap.go", "type apLog struct{}"},
	},
	{
		name:  "coap-observer-is-a-table-record",
		files: src("internal/coap"),
		check: deleted("observer", "obsShard.m"),
		bad:   plant{"internal/coap/observers.go", "type obsShard struct{ m map[tokenKey]uint32 }"},
	},
	{
		name:  "coap-dedup-is-one-log",
		files: all("internal/coap/..."),
		check: deleted("dedupQ", "dedupEntry", "expireDedupLocked"),
		bad:   plant{"internal/coap/conn.go", "type Conn struct{ dedupQ []int }"},
	},
	{
		name:  "coap-notify-is-one-fan-out",
		files: src("internal/coap"),
		check: deleted("Resource.notifyAll"),
		bad:   plant{"internal/coap/server.go", "func (r *Resource) notifyAll() {}"},
	},
	{
		name:  "options-nobody-set-stay-constants",
		files: all("internal/...", "cmd/...", "examples/..."),
		check: deleted("AckRandomFactor", "MaxBackoffExp", "BackoffSlot", "StrobeGap", "CheckDuration", "NeighborStale",
			"RouteLifetime", "ParentHysteresis", "ParentFailThreshold", "MaxRankIncrease", "MinHopRankIncrease", "ExpvarFunc"),
		bad: plant{"internal/coap/config.go", "type Config struct{ AckRandomFactor float64 }"},
	},

	// Written once: what every discipline, engine or mode shares lives in
	// one place, and a per-type copy growing back is the maintenance
	// these rules exist to prevent.
	{
		name:  "border-router-hand-off-is-written-once",
		files: all("...", "!internal/core/...", "!benchmark/..."),
		check: none(use("lowpan.ProtoIngest")),
		bad:   plant{"internal/exp/ingest.go", "var p = lowpan.ProtoIngest"},
	},
	{
		name:  "one-mac-chassis",
		files: all("internal/mac/..."),
		check: deleted(append(methods([]string{"CSMA", "LPL", "RIMAC", "TDMA"}, "OnReceive", "QueueLen", "Buffers", "Retune", "ForgetNeighbor", "SendBuf"),
			methods([]string{"LPL", "RIMAC"}, "setAwake", "scheduleSleep")...)...),
		bad: plant{"internal/mac/lpl.go", "func (l *LPL) setAwake() {}"},
	},
	{
		name:  "one-deployment-chassis",
		files: all("internal/core/..."),
		check: deleted(methods([]string{"ShardedDeployment"}, "Crash", "Recover", "RetuneTenant", "Converged")...),
		bad:   plant{"internal/core/sharded.go", "func (sd *ShardedDeployment) Crash() {}"},
	},
	{
		name:  "one-run-until-converged",
		files: all("internal/core/..."),
		check: count(1, 1, method("RunUntilConverged")),
		bad:   plant{"internal/core/sharded.go", "func (sd *ShardedDeployment) RunUntilConverged() {}"},
	},
	{
		name:  "status-probe-is-written-once",
		files: all("internal/exp/...", "cmd/..."),
		check: none(callWith("Resource", `"status"`)),
		bad:   plant{"internal/exp/probe.go", `var r = s.Resource("status")`},
	},
	{
		name:  "parent-walk-is-written-once",
		files: all("internal/exp/...", "cmd/..."),
		check: none(use("Router.Parent")),
		bad:   plant{"cmd/iiotsim/walk.go", "var p = n.Router.Parent()"},
	},
	{
		name:  "iiotsim-declares-no-interface",
		files: src("cmd/iiotsim/main.go"),
		check: none(interfaceType),
		bad:   plant{"cmd/iiotsim/main.go", "type engine interface{ Run() }"},
	},
	{
		name:  "replica-mode-is-picked-once",
		files: src("internal/store/replica.go", "internal/store/cp.go", "internal/store/ap.go"),
		check: count(0, 1, compare("Mode", "ModeAP", "ModeCP")),
		bad:   plant{"internal/store/cp.go", "func f() { _ = cfg.Mode == ModeAP; _ = ModeCP != r.cfg.Mode }"},
	},
	{
		name:  "one-cp-quorum-round",
		files: src("internal/store/cp.go"),
		check: count(1, 1, call("sched.Schedule")),
		bad:   plant{"internal/store/cp.go", "func f() { r.sched.Schedule(a); r.sched.Schedule(b) }"},
	},
	{
		name:  "replica-shell-schedules-nothing",
		files: src("internal/store/replica.go"),
		check: none(call("sched.Schedule")),
		bad:   plant{"internal/store/replica.go", "func f() { r.sched.Schedule(a) }"},
	},
	{
		name:  "sharded-medium-walks-no-links-of-its-own",
		files: src("internal/radio/sharded.go"),
		check: deleted("linksOf", "collectLinks", "nearActive"),
		bad:   plant{"internal/radio/sharded.go", "func nearActive() {}"},
	},
	{
		name:  "radio-collisions-read-receiver-state",
		files: src("internal/radio/..."),
		check: deleted("nearActive", "flight", "hears", "Medium.nearTx", "transmission.epoch"),
		bad:   plant{"internal/radio/radio.go", "func (m *Medium) nearActive() {}"},
	},
	{
		name:  "radio-keeps-one-receiver-list",
		files: all("internal/radio/..."),
		check: deleted("candCache"),
		bad:   plant{"internal/radio/radio.go", "type Medium struct{ candCache map[int]int }"},
	},
	{
		name:  "radio-fan-out-is-one-loop",
		files: src("internal/radio/radio.go"),
		check: deleted("cellKey", "cellOf", "overRecv", "recvBuf", "Medium.receivers"),
		bad:   plant{"internal/radio/radio.go", "func (m *Medium) receivers() {}"},
	},
	{
		name:  "radio-appends-one-delivery-record",
		files: src("internal/radio/radio.go"),
		check: count(1, 1, appendOf("dels", "delivery")),
		bad:   plant{"internal/radio/radio.go", "func f() { m.dels = append(m.dels, delivery{}, delivery{}); dels = append(dels, delivery{}) }"},
	},
	{
		name:  "radio-charges-airtime-to-radio-state",
		files: src("internal/radio/radio.go"),
		check: none(call("Spend")),
		bad:   plant{"internal/radio/radio.go", "func f() { n.ledger.Spend(1) }"},
	},
	{
		name:  "adapter-families-hold-no-lock",
		files: src("internal/adapter/modbus.go", "internal/adapter/blegatt.go", "internal/adapter/vendortlv.go"),
		check: noImport("sync"),
		bad:   plant{"internal/adapter/modbus.go", `import "sync"; var mu sync.Mutex`},
	},
	{
		name:  "adapter-families-grow-no-emulator-accessor",
		files: src("internal/adapter/modbus.go", "internal/adapter/blegatt.go", "internal/adapter/vendortlv.go"),
		check: deleted(methods([]string{"*"}, "mapFor", "RegisterModel", "State", "SetState", "Device")...),
		bad:   plant{"internal/adapter/blegatt.go", "func (e *bleEmu) SetState() {}"},
	},
	{
		name:  "registry-has-one-get-or-create",
		files: src("internal/metrics/metrics.go"),
		check: count(0, 2, call("r.mu.Lock")),
		bad:   plant{"internal/metrics/metrics.go", "func f() { r.mu.Lock(); r.mu.Lock(); r.mu.Lock() }"},
	},

	// The striped engine: one window-execution path, one control timeline.
	{
		name:  "shard-group-joins-no-goroutine-per-window",
		files: src("internal/sim/shard.go"),
		check: none(use("sync.WaitGroup")),
		bad:   plant{"internal/sim/shard.go", "var wg sync.WaitGroup"},
	},
	{
		name:  "shard-group-starts-its-crew-once",
		files: src("internal/sim/shard.go"),
		check: count(1, 1, goStmt),
		bad:   plant{"internal/sim/shard.go", "func f() { go a(); go b() }"},
	},
	{
		name:  "sim-keeps-one-control-timeline",
		files: all("internal/sim/..."),
		check: deleted("ctlItem", "ShardGroup.Post", "Kernel.Stop"),
		bad:   plant{"internal/sim/shard.go", "func (g *ShardGroup) Post() {}"},
	},
	{
		name:  "shard-group-searches-no-control-queue",
		files: src("internal/sim/shard.go"),
		check: noImport("sort"),
		bad:   plant{"internal/sim/shard.go", `import "sort"; var i = sort.SearchInts(nil, 1)`},
	},
	{
		name:  "sharded-deployment-posts-no-closure-per-frame",
		files: src("internal/core/sharded.go"),
		check: none(call("G.Post")),
		bad:   plant{"internal/core/sharded.go", "func f() { sd.G.Post(fn) }"},
	},
	{
		name:  "fleet-schedules-nothing",
		files: src("internal/core/fleet.go"),
		check: none(call("Schedule")),
		bad:   plant{"internal/core/fleet.go", "func f() { f.K.Schedule(d, fn) }"},
	},
	{
		name:  "fault-declares-no-scheduler-interface",
		files: all("internal/fault/..."),
		check: deleted("Sched"),
		bad:   plant{"internal/fault/fault.go", "type Sched interface{ At() }"},
	},

	// Imports a file set may not take.
	{
		name:  "no-gc-tuning-in-store-coap-gateway",
		files: all("internal/store/...", "internal/coap/...", "internal/gateway/..."),
		check: noImport("runtime/debug"),
		bad:   plant{"internal/store/shard.go", `import "runtime/debug"`},
	},
	{
		name:  "replication-tier-decodes-no-json",
		files: src("internal/gossip/...", "internal/store/..."),
		check: noImport("encoding/json"),
		bad:   plant{"internal/gossip/frame.go", `import "encoding/json"`},
	},
	{
		name:  "energy-ledger-is-plain",
		files: src("internal/metrics/energy.go"),
		check: noImport("sync/atomic"),
		bad:   plant{"internal/metrics/energy.go", `import "sync/atomic"`},
	},
	{
		name:  "kernel-queue-is-its-own-heap",
		files: src("internal/sim/sim.go"),
		check: noImport("container/heap"),
		bad:   plant{"internal/sim/sim.go", `import "container/heap"`},
	},
	{
		name:  "coap-exchange-keys-are-not-formatted",
		files: src("internal/coap/conn.go"),
		check: noImport("fmt"),
		bad:   plant{"internal/coap/conn.go", `import "fmt"; var k = fmt.Sprintf("%d|%x", 1, 2)`},
	},
	{
		name:  "lww-register-is-the-only-crdt",
		files: all("..."),
		check: noImport("iiotds/internal/crdt"),
		bad:   plant{"internal/store/ap.go", `import "iiotds/internal/crdt"`},
	},
	{
		name:  "crdt-package-stays-deleted",
		check: noDir("internal/crdt"),
		bad:   plant{"internal/crdt/lww.go", "package crdt"},
	},

	// The observability discipline of the protocol layers.
	{
		name:  "protocol-layers-never-print",
		files: src(protocolLayers...),
		check: none(prints),
		bad:   plant{"internal/radio/radio.go", `import "fmt"; func f() { fmt.Println("sent") }`},
	},
	{
		name:  "data-plane-emits-keep-their-journey",
		files: src(protocolLayers...),
		check: journeyKept,
		bad: plant{"internal/mac/csma.go", `func (c *CSMA) transmit(b *netbuf.Buffer) {
	c.rec.Emit(int32(c.id), trace.MACTx, int64(b.Len()), 0, 0, 0)
}`},
	},
	{
		name:  "journey-lists-name-every-trace-type-once",
		files: src("internal/trace/trace.go"),
		check: journeyTypesListed,
		bad:   plant{"internal/trace/trace.go", "type Type uint8\nconst (\n\tRadioTx Type = iota\n\tRadioJam\n\tnumTypes\n)"},
	},

	// What keeps tests, CI and fuzzing honest.
	{
		name:  "no-internal-package-lives-for-its-tests",
		files: all("..."),
		check: testOnly("internal/safety", "internal/diag"),
		bad:   plant{"internal/orphan/orphan.go", "func Unused() {}"},
	},
	{
		name:  "ci-run-selections-name-real-tests",
		check: ciRuns,
		bad:   plant{ciPath, "run: go test ./internal/radio -run 'TestNoSuchTest' -count=1\n"},
	},
	{
		name:  "peer-facing-decoders-are-fuzzed",
		files: all("internal/..."),
		check: fuzzed(peerDecoders...),
		bad:   plant{"internal/agg/fuzz_test.go", "package agg\n\nfunc FuzzFlood(f *testing.F) {}"},
	},
}
