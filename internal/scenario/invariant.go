package scenario

import (
	"fmt"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/radio"
	"iiotds/internal/trace"
)

// The invariant catalog. Each invariant is a property that must hold on
// every run of every scenario — the cross-layer correctness conditions
// the paper says a deployment must keep through faults, not a
// per-protocol unit assertion. A run fails iff it produces at least one
// Violation.
//
//   - causal-delivery: the radio never delivers a frame whose sender
//     has no prior transmission, no frame is transmitted by a crashed
//     node, and trace timestamps never run backwards. Checked by a
//     post-run scan of the flight-recorder stream (skipped if the ring
//     wrapped, since the transmit history would be incomplete, and on a
//     fleet with no recorder — tracing disabled, or the sharded engine).
//     It is the only invariant that depends on the engine.
//   - energy-monotone: every node's cumulative energy spend is
//     non-decreasing between snapshots — a ledger that "refunds" joules
//     would silently corrupt every lifetime result.
//   - dodag-acyclic: following preferred parents from any node
//     terminates at the root or a detached node within n hops. RPL only
//     promises eventual loop freedom — micro-loops during a parent
//     switch are protocol-legal and observed to hold up to ~40 s on
//     duty-cycled pipelines under load — so a node is convicted only
//     when its parent chain has been looping continuously for the loop
//     grace period (3×CheckEvery, at least 60 s): a wedged loop is
//     permanent, so the grace only needs to clear the legal-transient
//     tail. The drain phase additionally waits for a loop-free instant,
//     so a fleet that cannot reach one before the drain deadline
//     surfaces through the rejoin/finish checks.
//   - replay-monotone: the secured heartbeat stream never trips the
//     receiver's anti-replay window on a genuine frame. Counters must
//     survive (or be re-keyed across) reboots; a node that reuses an
//     old session after recovery replays counters the root has already
//     seen. Fed by the heartbeat workload in run.go.
//   - rejoin: after the drain phase, every churned node is back up and
//     attached to the DODAG through a live parent — self-repair
//     completed unattended. Checked when the drain ends.
//   - store-converges: after the drain phase (and any scheduled
//     storage-tier partition episode), every shard of the time-series
//     store has all replicas reporting equal series digests — the
//     acked ingest stream reached a single agreed history per shard.
//     Fed by the ingest workload in run.go.
//
// Invariant names are stable identifiers: reproducer logs, shrinking,
// and CI alerts reference them.
const (
	InvCausal  = "causal-delivery"
	InvEnergy  = "energy-monotone"
	InvAcyclic = "dodag-acyclic"
	InvReplay  = "replay-monotone"
	InvRejoin  = "rejoin"
	InvStore   = "store-converges"
)

// Violation is one observed breach of an invariant.
type Violation struct {
	// Invariant is the stable name of the breached property.
	Invariant string
	// At is the virtual time of the observation.
	At time.Duration
	// Node is the node the violation was observed on (-1 if global).
	Node int
	// Detail is a human-readable description.
	Detail string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("%s @%s node=%d: %s", v.Invariant, v.At, v.Node, v.Detail)
}

// maxViolations bounds how many violations one run records; a broken
// invariant often fires on every snapshot, and one witness per failure
// mode is all shrinking needs.
const maxViolations = 16

// checker evaluates the invariant catalog over one fleet's run:
// periodic snapshots for the state invariants (energy, DODAG), a final
// trace scan for causality, and add for the workload-fed invariants
// (from the fleet's timeline or the border router's events).
type checker struct {
	f          *core.Fleet
	violations []Violation
	lastEnergy []float64
	checkEvery time.Duration
	// loopSince records the virtual time each node's parent chain was
	// first observed looping (-1 = not looping); conviction requires the
	// loop to outlive loopGrace (see the catalog).
	loopSince []time.Duration
}

// loopGraceMin floors the routing-loop grace period well above the
// repair times legal transients exhibit (~40 s worst observed on a
// duty-cycled pipeline under load).
const loopGraceMin = 60 * time.Second

func (c *checker) loopGrace() time.Duration {
	if g := 3 * c.checkEvery; g > loopGraceMin {
		return g
	}
	return loopGraceMin
}

// newChecker snapshots the initial state and returns the checker.
// Callers drive it with snapshot (periodically, every checkEvery, from
// Fleet.Every) and finish (after the drain phase).
func newChecker(f *core.Fleet, checkEvery time.Duration) *checker {
	c := &checker{
		f:          f,
		lastEnergy: make([]float64, len(f.Nodes)),
		checkEvery: checkEvery,
		loopSince:  make([]time.Duration, len(f.Nodes)),
	}
	for i := range f.Nodes {
		c.lastEnergy[i] = f.Ledger(radio.NodeID(i)).TotalJoules()
		c.loopSince[i] = -1
	}
	return c
}

// now is the border router's clock: exact inside its events, and the
// fleet's at a barrier.
func (c *checker) now() time.Duration { return c.f.Kernel(0).Now() }

// add records a violation, capped at maxViolations.
func (c *checker) add(v Violation) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
}

// snapshot evaluates the state invariants at the current virtual time.
func (c *checker) snapshot() {
	now := c.now()
	for i := range c.f.Nodes {
		j := c.f.Ledger(radio.NodeID(i)).TotalJoules()
		if j < c.lastEnergy[i] {
			c.add(Violation{
				Invariant: InvEnergy, At: now, Node: i,
				Detail: fmt.Sprintf("total energy decreased %.9g → %.9g J", c.lastEnergy[i], j),
			})
		}
		c.lastEnergy[i] = j
	}
	c.checkAcyclic(now)
}

// checkAcyclic asks the fleet which parent chains are looping. A node
// is convicted only when its loop has outlived loopGrace — short-lived
// micro-loops during parent switches are legal RPL.
func (c *checker) checkAcyclic(now time.Duration) {
	witnessed := false
	for i := range c.f.Nodes {
		if !c.f.Looping(radio.NodeID(i)) {
			c.loopSince[i] = -1
			continue
		}
		if c.loopSince[i] < 0 {
			c.loopSince[i] = now
			continue
		}
		if held := now - c.loopSince[i]; held >= c.loopGrace() && !witnessed {
			witnessed = true // one witness per snapshot is enough
			c.add(Violation{
				Invariant: InvAcyclic, At: now, Node: i,
				Detail: fmt.Sprintf("parent chain from node %d looping for %s", i, held),
			})
		}
	}
}

// replay records a replay-monotone violation (fed by the heartbeat
// workload when the root rejects a genuine frame as replayed).
func (c *checker) replay(node int) {
	c.add(Violation{
		Invariant: InvReplay, At: c.now(), Node: node,
		Detail: "root rejected genuine heartbeat as replayed",
	})
}

// storeDiverged records a store-converges violation (fed by the ingest
// workload when the store's replicas disagree after the drain).
func (c *checker) storeDiverged(detail string) {
	c.add(Violation{
		Invariant: InvStore, At: c.now(), Node: -1, Detail: detail,
	})
}

// rejoined runs the rejoin check over the churned selection, at the
// instant the drain ends (settled, or at its deadline) and not after
// whatever the run does next: on a flapping topology a node between two
// parents is detached for seconds, which is not a failure to rejoin.
func (c *checker) rejoined(churned []radio.NodeID) {
	now := c.now()
	for _, id := range churned {
		if !c.f.Healthy(id) {
			c.add(Violation{
				Invariant: InvRejoin, At: now, Node: int(id),
				Detail: "churned node not healthily attached after drain",
			})
		}
	}
}

// finish runs the end-of-run invariants — a last state snapshot and the
// causal trace scan — and returns the verdict.
func (c *checker) finish() []Violation {
	c.snapshot()
	c.checkCausal()
	return c.violations
}

// checkCausal scans the flight-recorder stream in emission order: every
// delivery must be preceded by a transmission from its sender, no
// crashed node may transmit, and timestamps must be non-decreasing. The
// scan is skipped when the ring dropped events (incomplete history) or
// the fleet has no recorder.
func (c *checker) checkCausal() {
	rec := c.f.Recorder()
	if !rec.Enabled() || rec.Dropped() > 0 {
		return
	}
	n := len(c.f.Nodes)
	txSeen := make([]bool, n)
	down := make([]bool, n)
	var last trace.Time
	rec.Each(trace.All(), func(e trace.Event) {
		if e.At < last {
			c.add(Violation{
				Invariant: InvCausal, At: e.At, Node: int(e.Node),
				Detail: fmt.Sprintf("trace time ran backwards (%s after %s)", e.At, last),
			})
		}
		last = e.At
		switch e.Type {
		case trace.RadioTx:
			node := int(e.Node)
			if node >= 0 && node < n {
				if down[node] {
					c.add(Violation{
						Invariant: InvCausal, At: e.At, Node: node,
						Detail: "crashed node transmitted",
					})
				}
				txSeen[node] = true
			}
		case trace.RadioDeliver:
			sender := int(e.A)
			if sender >= 0 && sender < n && !txSeen[sender] {
				c.add(Violation{
					Invariant: InvCausal, At: e.At, Node: int(e.Node),
					Detail: fmt.Sprintf("delivery from node %d with no prior transmission", sender),
				})
			}
		case trace.FaultCrash:
			if node := int(e.Node); node >= 0 && node < n {
				down[node] = true
			}
		case trace.FaultRecover:
			if node := int(e.Node); node >= 0 && node < n {
				down[node] = false
			}
		}
	})
	c.checkJourneys(rec.Events())
}

// checkJourneys strengthens the causal scan from per-node to per-packet:
// reconstructed journeys let the checker pin deliveries to the
// transmission history of the *same* logical packet, and demand that
// every delivered CoAP exchange reconstructs into a complete journey
// (request and response under one ID). Only called with a complete
// (un-wrapped) event history.
func (c *checker) checkJourneys(events []trace.Event) {
	if cov, tot := trace.CoAPCoverage(events); tot > 0 && cov < tot {
		c.add(Violation{
			Invariant: InvCausal, At: c.now(), Node: -1,
			Detail: fmt.Sprintf("journeys: only %d/%d delivered CoAP exchanges reconstruct completely", cov, tot),
		})
	}
	for _, j := range trace.Journeys(events) {
		txSeen := false
		for _, e := range j.Events {
			switch e.Type {
			case trace.RadioTx:
				txSeen = true
			case trace.RadioDeliver:
				if !txSeen {
					c.add(Violation{
						Invariant: InvCausal, At: e.At, Node: int(e.Node),
						Detail: fmt.Sprintf("journey %d delivered before any of its frames was transmitted", j.ID),
					})
					return // one witness is enough
				}
			}
		}
	}
}
