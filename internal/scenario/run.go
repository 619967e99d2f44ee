package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/security"
	"iiotds/internal/sim"
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

// rekeyOnReboot controls whether a recovered node re-establishes its
// heartbeat session (fresh key, fresh counters on both ends) — the
// correct behavior. Tests set it to false to reintroduce the
// reuse-old-session-after-reboot bug class and prove the
// replay-monotone invariant catches it.
var rekeyOnReboot = true

// Run executes one scenario end to end: build, converge, arm faults,
// drive the workloads, soak, drain, and evaluate the invariant catalog.
// tr may be nil outside a sweep (e.g. the iiotsim -scenario replay).
func Run(spec Spec, tr *trial.Trial) Result {
	spec.applyDefaults()
	if spec.TraceCapacity == 0 {
		spec.TraceCapacity = scenarioTraceCapacity
	}
	b := Build(spec)
	spec = b.Spec
	d := b.D
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)

	res := Result{Trace: d.Trace}
	if spec.Encodable() {
		res.Repro = Format(spec)
	}
	res.Converged, res.ConvergeIn = d.RunUntilConverged(spec.Converge)

	chk := newChecker(d, spec.CheckEvery)
	snap := d.K.Every(spec.CheckEvery, 0, chk.snapshot)

	b.ArmFaults()
	churned := spec.Faults.Churn.Resolve(spec.Topo.Nodes())

	// --- heartbeat workload (feeds the replay-monotone invariant) ---
	var hb *heartbeats
	if spec.Workload.HeartbeatEvery > 0 {
		hb = newHeartbeats(d, chk, &res)
		if b.Churn != nil {
			prev := b.Churn.OnRecover
			b.Churn.OnRecover = func(id radio.NodeID) {
				if prev != nil {
					prev(id)
				}
				hb.reboot(int(id))
			}
		}
	}

	// --- push workload ---
	var stops []*sim.Repeater
	if every := spec.Workload.PushEvery; every > 0 {
		d.Root().Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
			res.PushDelivered++
		})
		for _, n := range d.Nodes[1:] {
			n := n
			stops = append(stops, d.K.Every(every, every/4, func() {
				if !n.Up() {
					return
				}
				res.Pushes++
				_ = n.Router.SendUp(lowpan.ProtoRaw, []byte{0x5c, byte(n.ID)})
			}))
		}
	}

	// --- ingest workload (feeds the store-converges invariant) ---
	var be *core.Backend
	stopFeed := func() {}
	if every := spec.Workload.IngestEvery; every > 0 {
		mode, err := store.ParseMode(spec.Store.Mode)
		if err != nil {
			panic(err) // unreachable: Validate gates Run in every caller path
		}
		be = d.AttachBackend(store.ShardedConfig{
			Shards: spec.Store.Shards,
			Policy: store.ShardPolicy{Mode: mode, Replicas: spec.Store.Replicas},
		})
		defer be.Close()
		// Partial batches drain every CheckEvery so readings replicate
		// during the run rather than piling up at the end.
		stopFeed = be.Feed(every, spec.CheckEvery)
		// Storage-tier partition episode: cut the last replica of every
		// shard PartAt into the soak, heal PartHold later, and push a CP
		// repair (AP shards reconverge via gossip on their own).
		if spec.Store.PartHold > 0 {
			d.K.At(d.K.Now()+sim.Time(spec.Store.PartAt), func() {
				be.Store.PartitionReplica(spec.Store.Replicas - 1)
			})
			d.K.At(d.K.Now()+sim.Time(spec.Store.PartAt+spec.Store.PartHold), func() {
				be.Store.Heal()
				be.Store.Repair()
			})
		}
	}

	// --- aggregation workload ---
	if epoch := spec.Workload.AggEpoch; epoch > 0 {
		for i, n := range d.Nodes[1:] {
			v := 20 + float64(i%10)
			n.SetSampler(func(attr string) (float64, bool) { return v, true })
		}
		d.Root().Agg.OnResult = func(agg.Result) { res.AggEpochs++ }
		d.Root().Agg.RunQuery(agg.Query{ID: 1, Fn: agg.Avg, Attr: "temp", Epoch: epoch, MaxDepth: 16})
	}

	// --- CoAP probe workload ---
	if every := spec.Workload.ProbeEvery; every > 0 {
		targets := churned
		if len(targets) == 0 {
			for _, n := range d.Nodes[1:] {
				targets = append(targets, n.ID)
			}
		}
		for _, id := range targets {
			d.Nodes[int(id)].Server.Resource("status").Get(
				func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
		}
		next := 0
		stops = append(stops, d.K.Every(every, 0, func() {
			id := targets[next%len(targets)]
			next++
			d.Root().CoAP.Get(d.Nodes[int(id)].Addr(), "status", func(m *coap.Message, err error) {
				if err == nil && m.Code.IsSuccess() {
					res.ProbeOK++
				} else {
					res.ProbeFail++
				}
			})
		}))
	}
	if hb != nil {
		stops = append(stops, hb.start(spec.Workload.HeartbeatEvery)...)
	}

	// --- soak ---
	if b.Churn != nil {
		b.Churn.Start()
	}
	d.K.RunFor(spec.Soak)
	if b.Churn != nil {
		b.Churn.Stop()
		res.Crashes = b.Churn.Crashes()
		res.Recoveries = b.Churn.Recoveries()
	}
	for _, s := range stops {
		s.Stop()
	}
	stopFeed() // with the other workloads, not deferred: ingest must not run through the drain

	// --- drain: owed recoveries fire, churned nodes re-attach, and the
	// DODAG reaches a loop-free instant ---
	deadline := d.K.Now() + sim.Time(spec.Drain)
	for d.K.Now() < deadline {
		settled := loopFree(d)
		for _, id := range churned {
			if !settled {
				break
			}
			if !healthy(d, id) {
				settled = false
			}
		}
		if settled {
			break
		}
		d.K.RunFor(time.Second)
	}
	if b.Churn != nil {
		res.Recoveries = b.Churn.Recoveries()
	}
	snap.Stop()

	// --- store settle: flush the final partial batches, give the tier a
	// few anti-entropy rounds to reconcile, and check convergence ---
	if be != nil {
		be.Flush()
		d.K.RunFor(storeSettle)
		res.IngestSent, res.IngestDelivered = be.Sent(), be.Delivered()
		res.IngestAcked, res.IngestFailed = be.Batches()
		res.StoreConverged = be.Store.Converged()
		if !res.StoreConverged {
			chk.storeDiverged(fmt.Sprintf("%d/%d store shards converged after drain",
				be.Store.ConvergedShards(), be.Store.NumShards()))
		}
	}

	// The rejoin invariant only makes sense for fleets that attached in
	// the first place: a node that never joined did not fail to
	// *re*join. Non-convergence is reported via Result.Converged, not
	// as a violation, to keep the harness free of capacity flakiness.
	if !res.Converged {
		churned = nil
	}
	res.Violations = chk.finish(churned)
	return res
}

// Encodable reports whether the spec can round-trip through a
// reproducer string (the Profiles and Factories expert seams cannot).
func (s Spec) Encodable() bool {
	return len(s.Profiles) == 0 &&
		s.Factories.MAC == nil && s.Factories.Link == nil && s.Factories.Router == nil
}

// scenarioPSK is the fleet-wide pre-shared key the heartbeat sessions
// derive from. A fixed key is fine: the invariant observes counter
// discipline, not key secrecy.
var scenarioPSK = []byte("iiotds/scenario heartbeat psk v1")

// heartbeats is the secured heartbeat workload: every non-root node
// holds an AEAD session to the root (security.Channel each way) and
// periodically seals a monotone sequence number to it over
// ProtoScenario. A reboot re-derives the session from a per-incarnation
// nonce on both ends — the discipline whose absence the
// replay-monotone invariant detects: reusing the old session after a
// reboot restarts the frame counter and the root's anti-replay window
// rejects genuine frames.
type heartbeats struct {
	d   *core.Deployment
	chk *checker
	res *Result

	send []*security.Channel // per node: node → root sealer
	recv []*security.Channel // per node: root-side opener
	inc  []int               // per node: incarnation number
	seq  []uint64            // per node: application sequence
}

func newHeartbeats(d *core.Deployment, chk *checker, res *Result) *heartbeats {
	n := len(d.Nodes)
	h := &heartbeats{
		d:    d,
		chk:  chk,
		res:  res,
		send: make([]*security.Channel, n),
		recv: make([]*security.Channel, n),
		inc:  make([]int, n),
		seq:  make([]uint64, n),
	}
	for i := 1; i < n; i++ {
		h.rekey(i)
	}
	d.Root().Router.Handle(lowpan.ProtoScenario, func(src radio.NodeID, payload []byte) {
		i := int(src)
		if i <= 0 || i >= n || h.recv[i] == nil {
			return
		}
		_, err := h.recv[i].Open(payload, nil)
		switch {
		case err == nil:
			res.HeartbeatOK++
		case errors.Is(err, security.ErrReplay):
			// Replay on a genuine frame: the sender's counter ran
			// backwards past the root's window — the invariant breach.
			chk.replay(i, "root rejected genuine heartbeat as replayed")
		}
		// ErrAuth is tolerated: a frame sealed under the previous
		// incarnation's key can legitimately arrive (multi-hop delay)
		// after a rekey.
	})
	return h
}

// rekey (re-)derives node i's session for its current incarnation and
// installs fresh channels — counters and replay windows restart
// together on both ends, which is what keeps the counter stream the
// root sees monotone per session.
func (h *heartbeats) rekey(i int) {
	var nonce [12]byte
	binary.BigEndian.PutUint32(nonce[0:4], uint32(i))
	binary.BigEndian.PutUint64(nonce[4:12], uint64(h.inc[i]))
	key := security.DeriveSessionKey(scenarioPSK, nonce[:], []byte("root"))
	ks := security.NewKeyStore()
	if err := ks.Set(1, key); err != nil {
		panic(err)
	}
	send, err := security.NewChannel(ks, 1)
	if err != nil {
		panic(err)
	}
	recv, err := security.NewChannel(ks, 1)
	if err != nil {
		panic(err)
	}
	h.send[i], h.recv[i] = send, recv
}

// reboot is called when node i recovers from a crash. The correct
// discipline is a full re-key; with rekeyOnReboot disabled (bug
// injection) the node rebuilds only its sender from the old session
// key — modeling a device that lost its volatile frame counter but
// kept its provisioned key — so its counters restart behind the root's
// replay window.
func (h *heartbeats) reboot(i int) {
	if i <= 0 || i >= len(h.send) {
		return
	}
	if rekeyOnReboot {
		h.inc[i]++
		h.rekey(i)
		return
	}
	// Bug injection: the incarnation is not bumped, so rekey rebuilds
	// the sender under the SAME key with a restarted frame counter;
	// restoring the old receiver keeps the root's advanced window —
	// the rebooted node now replays counters the root has seen.
	old := h.recv[i]
	h.rekey(i)
	h.recv[i] = old
}

// start launches one heartbeat repeater per non-root node.
func (h *heartbeats) start(every time.Duration) []*sim.Repeater {
	var stops []*sim.Repeater
	for _, n := range h.d.Nodes[1:] {
		n := n
		i := int(n.ID)
		stops = append(stops, h.d.K.Every(every, every/4, func() {
			if !n.Up() {
				return
			}
			h.seq[i]++
			var payload [8]byte
			binary.BigEndian.PutUint64(payload[:], h.seq[i])
			h.res.Heartbeats++
			_ = n.Router.SendUp(lowpan.ProtoScenario, h.send[i].Seal(payload[:], nil))
		}))
	}
	return stops
}
