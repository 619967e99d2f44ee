package scenario

import (
	"fmt"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/store"
	"iiotds/internal/trace"
	"iiotds/internal/trial"
)

// storeSettle is how long the run lets the storage tier reconcile after
// the final batch flush: several anti-entropy intervals (the sharded
// store gossips every second by default), well past one push-pull round
// per replica.
const storeSettle = 5 * time.Second

// Result summarizes one scenario run. Counters exist so tests and the
// property harness can tell a vacuous pass (nothing happened) from a
// real one; Violations is the verdict.
type Result struct {
	// Repro is the reproducer string for the run's spec (empty when the
	// spec uses the non-encodable Profiles/Factories seams).
	Repro string
	// Converged reports whether the DODAG completed within
	// Spec.Converge; ConvergeIn is the time it took.
	Converged  bool
	ConvergeIn time.Duration
	// Crashes and Recoveries count the churn engine's injections.
	Crashes, Recoveries int
	// Workload counters.
	ProbeOK, ProbeFail      int
	Pushes, PushDelivered   int
	AggEpochs               int
	Heartbeats, HeartbeatOK int
	// Ingest workload counters: readings sent by nodes, delivered to
	// the root, and batches acked/failed by the store tier.
	IngestSent, IngestDelivered int
	IngestAcked, IngestFailed   uint64
	// StoreConverged reports whether every store shard's replicas held
	// equal digests at the end of the run (also surfaced as the
	// store-converges invariant).
	StoreConverged bool
	// Violations are the invariant breaches observed; empty means the
	// run passed.
	Violations []Violation
	// Trace is the run's flight recorder (scenarios always trace; see
	// scenarioTraceCapacity). Callers can export it with WriteJSONL or
	// reconstruct packet journeys from it with trace.Journeys.
	Trace *trace.Recorder
}

// Failed reports whether the run breached any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// scenarioTraceCapacity is the flight-recorder ring Run uses when the
// spec leaves TraceCapacity at zero: large enough that short property
// runs keep their full transmit history for the causal scan.
const scenarioTraceCapacity = 1 << 16

// Run executes one scenario end to end on one kernel: build, converge,
// arm faults, drive the workloads, soak, drain, and evaluate the
// invariant catalog. tr may be nil outside a sweep (e.g. the iiotsim
// -scenario replay). BuildSharded(spec, n).Run is the same run striped.
func Run(spec Spec, tr *trial.Trial) Result {
	if spec.TraceCapacity == 0 {
		spec.TraceCapacity = scenarioTraceCapacity
	}
	return Build(spec).Run(tr)
}

// Run executes the build's spec on its fleet, whichever engine that is
// on. Every invariant is evaluated except, where there is no flight
// recorder (stripes, or tracing disabled), the causal scan that reads
// one. A build runs once.
func (b *built) Run(tr *trial.Trial) Result {
	spec, f := b.Spec, b.fleet
	tr.Observe(f.Kernels()...)
	tr.ObserveTrace(f.Recorder())

	res := Result{Trace: f.Recorder()}
	if spec.Encodable() {
		res.Repro = Format(spec)
	}
	res.Converged, res.ConvergeIn = f.RunUntilConverged(spec.Converge)

	chk := newChecker(f, spec.CheckEvery)
	snap := f.Every(spec.CheckEvery, chk.snapshot)

	b.ArmFaults()
	churned := spec.Faults.Churn.Resolve(spec.Topo.Nodes())

	// The workloads start in a fixed order — push, ingest, aggregation,
	// probe, heartbeat — because each jittered repeater draws from its
	// kernel at creation (workload.go). One that the spec leaves out
	// stays the idle zero value its counters are read from at the end.
	var stops []func()
	push, probe, hb := &core.Push{}, &Probe{}, &Heartbeat{Push: &core.Push{}}

	// --- push workload ---
	if every := spec.Workload.PushEvery; every > 0 {
		f.Root().Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
			res.PushDelivered++
		})
		push = f.StartPush(f.Nodes[1:], lowpan.ProtoRaw, every, every/4, func(n *core.Node) []byte {
			if !n.Up() {
				return nil
			}
			return []byte{0x5c, byte(n.ID)}
		})
		stops = append(stops, push.Stop)
	}

	// --- ingest workload (feeds the store-converges invariant) ---
	var be *core.Backend
	var feed *core.Push
	if every := spec.Workload.IngestEvery; every > 0 {
		mode, err := store.ParseMode(spec.Store.Mode)
		if err != nil {
			panic(err) // unreachable: Validate gates Run in every caller path
		}
		be = f.AttachBackend(store.ShardedConfig{
			Shards: spec.Store.Shards,
			Policy: store.ShardPolicy{Mode: mode, Replicas: spec.Store.Replicas},
		})
		defer be.Close()
		// Partial batches drain every CheckEvery so readings replicate
		// during the run rather than piling up at the end.
		feed = be.Feed(every, spec.CheckEvery)
		stops = append(stops, feed.Stop)
		// Storage-tier partition episode: cut the last replica of every
		// shard PartAt into the soak, heal PartHold later, and push a CP
		// repair (AP shards reconverge via gossip on their own).
		if spec.Store.PartHold > 0 {
			f.Sched().At(f.Now()+spec.Store.PartAt, func() {
				be.Store.PartitionReplica(spec.Store.Replicas - 1)
			})
			f.Sched().At(f.Now()+spec.Store.PartAt+spec.Store.PartHold, func() {
				be.Store.Heal()
				be.Store.Repair()
			})
		}
	}

	// --- aggregation workload ---
	if epoch := spec.Workload.AggEpoch; epoch > 0 {
		StartAgg(f, aggQuery(epoch),
			func(n *core.Node) float64 { return 20 + float64((n.ID-1)%10) },
			func(agg.Result) { res.AggEpochs++ })
	}

	// --- CoAP probe workload ---
	if every := spec.Workload.ProbeEvery; every > 0 {
		targets := churned
		if len(targets) == 0 {
			for _, n := range f.Nodes[1:] {
				targets = append(targets, n.ID)
			}
		}
		probe = StartProbe(f, targets, every)
		stops = append(stops, probe.Stop)
	}

	// --- heartbeat workload (feeds the replay-monotone invariant) ---
	if every := spec.Workload.HeartbeatEvery; every > 0 {
		hb = StartHeartbeat(f, every, chk.replay)
		stops = append(stops, hb.Stop)
		if b.Churn != nil {
			b.Churn.OnRecover = hb.Reboot
		}
	}

	// --- soak ---
	if b.Churn != nil {
		b.Churn.Start()
	}
	f.RunFor(spec.Soak)
	if b.Churn != nil {
		b.Churn.Stop()
	}
	// Every workload stops here, ingest included: none may run through
	// the drain.
	for _, stop := range stops {
		stop()
	}

	// --- drain: owed recoveries fire, churned nodes re-attach, and the
	// DODAG reaches a loop-free instant ---
	f.Await(func() bool { return f.LoopFree() && f.Healthy(churned...) }, spec.Drain)
	if b.Churn != nil {
		res.Crashes, res.Recoveries = b.Churn.Crashes(), b.Churn.Recoveries()
	}
	snap.Stop()
	// The rejoin invariant only makes sense for fleets that attached in
	// the first place: a node that never joined did not fail to
	// *re*join. Non-convergence is reported via Result.Converged, not
	// as a violation, to keep the harness free of capacity flakiness.
	if res.Converged {
		chk.rejoined(churned)
	}

	// --- store settle: flush the final partial batches, give the tier a
	// few anti-entropy rounds to reconcile, and check convergence ---
	if be != nil {
		be.Flush()
		f.RunFor(storeSettle)
		res.IngestSent, res.IngestDelivered = feed.Sent(), be.Delivered()
		res.IngestAcked, res.IngestFailed = be.Batches()
		res.StoreConverged = be.Store.Converged()
		if !res.StoreConverged {
			chk.storeDiverged(fmt.Sprintf("%d/%d store shards converged after drain",
				be.Store.ConvergedShards(), be.Store.NumShards()))
		}
	}
	res.Pushes = push.Sent()
	res.ProbeOK, res.ProbeFail = probe.OK, probe.Fail
	res.Heartbeats, res.HeartbeatOK = hb.Sent(), hb.OK

	res.Violations = chk.finish()
	return res
}

// Encodable reports whether the spec can round-trip through a
// reproducer string (the Profiles and Factories expert seams cannot).
func (s Spec) Encodable() bool {
	return len(s.Profiles) == 0 && s.Factories.MAC == nil
}
