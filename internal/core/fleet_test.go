package core

import (
	"testing"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/link"
	"iiotds/internal/radio"
)

// The fleet contract — run, converge, crash, recover, retune, group by
// profile, the health predicates, the summed counters — is written once
// (fleet.go) and checked here once, against every way of driving it:
// one kernel, one stripe under a shard group, and three stripes with
// cross-stripe neighbors. A test sees only the *Fleet.
var engineKinds = []struct {
	name  string
	build func(Stack) *Fleet
}{
	{"flat", func(s Stack) *Fleet { return &NewStack(s).Fleet }},
	{"stripes=1", func(s Stack) *Fleet { return &NewShardedStack(s, 1).Fleet }},
	{"stripes=3", func(s Stack) *Fleet { return &NewShardedStack(s, 3).Fleet }},
}

func forEachEngine(t *testing.T, stack Stack, fn func(t *testing.T, e *Fleet)) {
	t.Helper()
	for _, k := range engineKinds {
		k := k
		t.Run(k.name, func(t *testing.T) { fn(t, k.build(stack)) })
	}
}

// gridStack is smallGrid's description: 15 m spacing, so three stripes
// cut a 3×3 grid into one column each.
func gridStack(n int, p Profile) Stack {
	return uniformStack(11, radio.GridTopology(n, 15), p)
}

func TestDeploymentConverges(t *testing.T) {
	forEachEngine(t, gridStack(16, Profile{}), func(t *testing.T, e *Fleet) {
		if e.Converged() || e.ConvergedFraction() == 1 {
			t.Fatal("fleet reports convergence before any time has passed")
		}
		ok, took := e.RunUntilConverged(2 * time.Minute)
		if !ok {
			t.Fatal("deployment did not converge")
		}
		if took > time.Minute {
			t.Fatalf("convergence took %v", took)
		}
		if f := e.ConvergedFraction(); f != 1 {
			t.Fatalf("converged fleet reports fraction %v", f)
		}
	})
}

func TestCrashRecoverCycle(t *testing.T) {
	forEachEngine(t, gridStack(9, Profile{}), func(t *testing.T, e *Fleet) {
		if ok, _ := e.RunUntilConverged(time.Minute); !ok {
			t.Fatal("no convergence")
		}
		victim := radio.NodeID(4) // grid center: a likely forwarder
		e.Crash(victim)
		e.Crash(victim) // idempotent
		if e.Nodes[4].Up() {
			t.Fatal("node still up after crash")
		}
		e.RunFor(2 * time.Minute)
		// The rest of the network must have healed around the crash.
		for i, n := range e.Nodes {
			if i == 4 || !n.up {
				continue
			}
			if n.Router.Partitioned() {
				t.Fatalf("node %d partitioned after center crash", i)
			}
		}
		e.Recover(victim)
		e.Recover(victim) // idempotent
		ok, _ := e.RunUntilConverged(2 * time.Minute)
		if !ok {
			t.Fatal("recovered node did not rejoin")
		}
	})
}

// knownNeighbours counts the fleet's nodes that id's link table holds
// an estimate for.
func knownNeighbours(e *Fleet, id radio.NodeID) int {
	n := 0
	for j := range e.Nodes {
		if _, ok := e.Nodes[id].Link.Neighbors().Lookup(radio.NodeID(j)); ok {
			n++
		}
	}
	return n
}

// TestRecoverResetsNeighborState is the deployment-level regression test
// for the stale-state recovery bug: a rebooted node must come back with
// an empty neighbor table (its RAM is gone), and its peers must drop the
// ETX estimate and MAC dedup entry they held for the old incarnation —
// otherwise routing leans on dead link quality and the restarted
// sequence numbering can be silently deduped (see the mac conformance
// reboot tests for the frame-level mechanism).
func TestRecoverResetsNeighborState(t *testing.T) {
	forEachEngine(t, gridStack(9, Profile{}), func(t *testing.T, e *Fleet) {
		if ok, _ := e.RunUntilConverged(time.Minute); !ok {
			t.Fatal("no convergence")
		}
		e.RunFor(time.Minute) // accumulate link-quality history
		victim := radio.NodeID(4)
		withEntry := 0
		for i, n := range e.Nodes {
			if _, ok := n.Link.Neighbors().Lookup(victim); radio.NodeID(i) != victim && ok {
				withEntry++
			}
		}
		if withEntry == 0 {
			t.Fatal("no peer ever learned about the victim; test premise broken")
		}
		if knownNeighbours(e, victim) == 0 {
			t.Fatal("victim has no neighbors pre-crash; test premise broken")
		}

		e.Crash(victim)
		e.RunFor(30 * time.Second)
		e.Recover(victim)

		// Immediately after Recover, before any new traffic: the victim's own
		// table is empty and every peer forgot the old incarnation.
		if n := knownNeighbours(e, victim); n != 0 {
			t.Fatalf("victim rebooted with %d retained neighbors", n)
		}
		for i, n := range e.Nodes {
			if radio.NodeID(i) == victim {
				continue
			}
			if entry, ok := n.Link.Neighbors().Lookup(victim); ok {
				t.Fatalf("peer %d retained ETX state for rebooted node: %+v", i, entry)
			}
		}

		// The first post-reboot unicast must be delivered, not deduped: a
		// peer handler sees the payload. Node 3 is the victim's row
		// neighbor: on another stripe when there are three.
		peer := radio.NodeID(3)
		var got []string
		e.Nodes[peer].Link.Handle(link.ProtoApp, func(from radio.NodeID, p []byte) {
			if from == victim {
				got = append(got, string(p))
			}
		})
		delivered := false
		e.Nodes[victim].Link.Send(peer, link.ProtoApp, []byte("post-reboot"), func(ok bool) { delivered = ok })
		e.RunFor(10 * time.Second)
		if !delivered {
			t.Fatal("first post-reboot unicast not acknowledged")
		}
		if len(got) == 0 || got[0] != "post-reboot" {
			t.Fatalf("first post-reboot unicast not delivered to handler: %v", got)
		}
		if ok, _ := e.RunUntilConverged(2 * time.Minute); !ok {
			t.Fatal("recovered node did not rejoin")
		}
	})
}

// TestCrashResetsCoAPExchanges covers the other half of the recovery
// bug: Crash must drop the victim's CoAP exchange state. An outstanding
// request from the victim fails with ErrClosed at crash time, and the
// endpoint holds no pending/awaiting entries across the reboot.
func TestCrashResetsCoAPExchanges(t *testing.T) {
	forEachEngine(t, gridStack(9, Profile{WithCoAP: true}), func(t *testing.T, e *Fleet) {
		if ok, _ := e.RunUntilConverged(time.Minute); !ok {
			t.Fatal("no convergence")
		}
		e.Root().Server.Resource("cfg").Get(func(string, *coap.Message) *coap.Message {
			return coap.TextResponse("v1")
		})
		victim := radio.NodeID(8)
		// Make the root unreachable first so the victim's GET stays pending,
		// then crash the victim with the exchange in flight.
		var gotErr error
		done := false
		e.Ctl().SetDown(0, true)
		e.Nodes[victim].CoAP.Get(e.Root().Addr(), "cfg", func(m *coap.Message, err error) {
			done, gotErr = true, err
		})
		e.RunFor(5 * time.Second)
		if done {
			t.Fatalf("request resolved before crash (err=%v); premise broken", gotErr)
		}
		if p, a := e.Nodes[victim].CoAP.Exchanges(); p == 0 && a == 0 {
			t.Fatal("no in-flight exchange state; premise broken")
		}
		e.Crash(victim)
		if !done || gotErr == nil {
			t.Fatal("crash did not fail the in-flight request")
		}
		if p, a := e.Nodes[victim].CoAP.Exchanges(); p != 0 || a != 0 {
			t.Fatalf("crashed node leaked exchange state: pending=%d awaiting=%d", p, a)
		}
		e.Ctl().SetDown(0, false)
		e.Recover(victim)
		if ok, _ := e.RunUntilConverged(2 * time.Minute); !ok {
			t.Fatal("recovered node did not rejoin")
		}
		// The rebooted endpoint is usable: a fresh request round-trips.
		var got string
		e.Nodes[victim].CoAP.Get(e.Root().Addr(), "cfg", func(m *coap.Message, err error) {
			if err == nil {
				got = string(m.Payload)
			}
		})
		e.RunFor(2 * time.Minute)
		if got != "v1" {
			t.Fatalf("post-reboot request failed, got %q", got)
		}
	})
}

// TestPendingCONToCrashedNodeTimesOutCleanly pins the sender side: a CON
// addressed to a node that crashes mid-exchange fails with ErrTimeout
// after the retransmission budget — it neither hangs nor leaks a pending
// entry at the sender.
func TestPendingCONToCrashedNodeTimesOutCleanly(t *testing.T) {
	forEachEngine(t, gridStack(9, Profile{WithCoAP: true}), func(t *testing.T, e *Fleet) {
		if ok, _ := e.RunUntilConverged(time.Minute); !ok {
			t.Fatal("no convergence")
		}
		victim := radio.NodeID(8)
		e.Crash(victim)
		var gotErr error
		done := false
		e.Root().CoAP.Get(e.Nodes[victim].Addr(), "anything", func(m *coap.Message, err error) {
			done, gotErr = true, err
		})
		// Retransmission budget: up to ~31 × AckTimeout(4 s) × 1.5 ≈ 186 s.
		e.RunFor(4 * time.Minute)
		if !done {
			t.Fatal("CON to crashed node never resolved")
		}
		if gotErr != coap.ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", gotErr)
		}
		if p, a := e.Root().CoAP.Exchanges(); p != 0 || a != 0 {
			t.Fatalf("sender leaked exchange state: pending=%d awaiting=%d", p, a)
		}
	})
}

func TestNodesByProfile(t *testing.T) {
	forEachEngine(t, twoClassStack(nil), func(t *testing.T, e *Fleet) {
		backbone := e.NodesByProfile("backbone")
		leaves := e.NodesByProfile("leaf")
		if len(backbone) != 2 || len(leaves) != 2 {
			t.Fatalf("NodesByProfile split %d/%d, want 2/2", len(backbone), len(leaves))
		}
		for _, n := range leaves {
			if n.Profile().Name != "leaf" {
				t.Fatalf("node %d grouped as leaf but profiled %q", n.ID, n.Profile().Name)
			}
		}
		if got := e.NodesByProfile("no-such-class"); len(got) != 0 {
			t.Fatalf("unknown profile returned %d nodes", len(got))
		}
	})
}

func TestRetuneTenantByProfile(t *testing.T) {
	s := twoClassStack(func(s *Stack) {
		s.Profiles[1].Tenant = "plant-b" // leaves belong to another tenant
	})
	forEachEngine(t, s, func(t *testing.T, e *Fleet) {
		e.RetuneTenant("plant-b", 9)
		// Retuning one tenant must not touch the other class's channel: the
		// backbone keeps delivering on channel 0 while the leaves moved.
		for _, n := range e.NodesByProfile("leaf") {
			if got := e.Medium(n.ID).ChannelOf(n.ID); got != 9 {
				t.Fatalf("leaf %d on channel %d after retune, want 9", n.ID, got)
			}
		}
		for _, n := range e.NodesByProfile("backbone") {
			if got := e.Medium(n.ID).ChannelOf(n.ID); got != 0 {
				t.Fatalf("backbone %d moved to channel %d, want 0", n.ID, got)
			}
		}
	})
}

// TestFleetPredicatesAndCounters covers what the scenario engine and the
// experiments judge a fleet by: RunUntilConverged reports the time it
// advanced, a node whose parent crashes is unhealthy until it re-parents
// or the parent returns, a converged DODAG is loop-free, and a counter
// reads the sum over every stripe's registry.
func TestFleetPredicatesAndCounters(t *testing.T) {
	forEachEngine(t, gridStack(16, Profile{}), func(t *testing.T, e *Fleet) {
		ok, took := e.RunUntilConverged(2 * time.Minute)
		if !ok || took != e.Now() || took == 0 {
			t.Fatalf("RunUntilConverged = %v, %v at now=%v", ok, took, e.Now())
		}
		if again, zero := e.RunUntilConverged(time.Minute); !again || zero != 0 {
			t.Fatalf("converged fleet spent %v converging again", zero)
		}
		if e.Healthy(0) {
			t.Fatal("the root has no parent to be healthy through")
		}
		child := radio.NodeID(-1)
		for _, n := range e.Nodes[1:] {
			if !e.Healthy(n.ID) || e.Looping(n.ID) {
				t.Fatalf("converged node %d: healthy=%v looping=%v", n.ID, e.Healthy(n.ID), e.Looping(n.ID))
			}
			if n.Router.Parent() != 0 {
				child = n.ID
			}
		}
		if child < 0 {
			t.Fatal("no multi-hop node; test premise broken")
		}
		if !e.LoopFree() {
			t.Fatal("converged DODAG reports a loop")
		}

		parent := e.Nodes[child].Router.Parent()
		e.Crash(parent)
		if e.Healthy(parent) || e.Healthy(child) {
			t.Fatalf("after crashing %d: parent healthy=%v, child %d healthy=%v (still points at the corpse)",
				parent, e.Healthy(parent), child, e.Healthy(child))
		}
		e.Recover(parent)
		if ok, _ := e.RunUntilConverged(2 * time.Minute); !ok {
			t.Fatal("recovered parent did not rejoin")
		}
		e.RunFor(30 * time.Second) // the child's next parent probe
		if !e.Healthy(parent) || !e.Healthy(child) || !e.LoopFree() {
			t.Fatalf("after recovery: parent healthy=%v child healthy=%v loop-free=%v",
				e.Healthy(parent), e.Healthy(child), e.LoopFree())
		}

		total, most := e.Counter("radio.tx_frames"), 0.0
		for _, m := range e.media {
			if v := m.Registry().Counter("radio.tx_frames").Value(); v > most {
				most = v
			}
		}
		if total == 0 || total < most || (len(e.media) > 1 && total == most) {
			t.Fatalf("radio.tx_frames: summed %v, largest stripe %v over %d stripes", total, most, len(e.media))
		}
		if got := len(e.Kernels()); got != len(e.media) {
			t.Fatalf("%d kernels for %d stripes", got, len(e.media))
		}
	})
}

// TestSchedCancelsOnEitherEngine: a callback on Sched is an ordinary
// kernel event on both engines. Its handle is pending at the instant
// asked for, Cancel takes it off the timeline, and it never runs.
func TestSchedCancelsOnEitherEngine(t *testing.T) {
	forEachEngine(t, gridStack(16, Profile{}), func(t *testing.T, e *Fleet) {
		ran := false
		ev := e.Sched().Schedule(5*time.Second, func() { ran = true })
		if !ev.Pending() || ev.At() != 5*time.Second {
			t.Fatalf("handle: pending=%v at=%v, want pending at 5s", ev.Pending(), ev.At())
		}
		if !ev.Cancel() {
			t.Fatal("Cancel found nothing pending")
		}
		e.RunFor(10 * time.Second)
		if ran {
			t.Fatal("a cancelled callback ran")
		}
	})
}

// TestEveryStopLeavesNothingPending: stopping a fleet repeater takes
// its next tick off the timeline on both engines, and it ticks no more.
func TestEveryStopLeavesNothingPending(t *testing.T) {
	forEachEngine(t, gridStack(16, Profile{}), func(t *testing.T, e *Fleet) {
		ticks := 0
		r := e.Every(time.Second, func() { ticks++ })
		e.RunFor(3500 * time.Millisecond)
		pending := e.Sched().Pending()
		r.Stop()
		if got := e.Sched().Pending(); got != pending-1 {
			t.Fatalf("%d events pending after Stop, %d before it; want one fewer", got, pending)
		}
		e.RunFor(5 * time.Second)
		if ticks != 3 {
			t.Fatalf("%d ticks, want 3", ticks)
		}
	})
}
