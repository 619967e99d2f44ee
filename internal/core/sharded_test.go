package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/radio"
)

// shardedGridStack is a 6×6 grid (X span 0..60 m, 12 m spacing): with 3
// stripes the slabs are 20 m wide — narrower than RangeMax (35 m) — so
// almost every transmission crosses a stripe boundary. The harshest
// small-scale exercise of the announcement path.
func shardedGridStack(seed int64) Stack {
	return Stack{
		Seed:     seed,
		Profiles: []Profile{{Name: DefaultProfile, WithCoAP: true}},
		Topology: Uniform(DefaultProfile, radio.GridTopology(36, 12)),
	}
}

// runShardedScript converges a 3-stripe fleet, probes a far cross-stripe
// node over CoAP, crashes and recovers a border node mid-run, and
// returns a full-run digest: join states, probe outcomes, scheduling
// stats, and handoff counts.
func runShardedScript(t *testing.T, workers int) string {
	t.Helper()
	sd := NewShardedStack(shardedGridStack(7), 3)
	sd.G.SetWorkers(workers)
	ok, took := sd.RunUntilConverged(3 * time.Minute)
	if !ok {
		t.Fatalf("workers=%d: fleet never converged (took %v)", workers, took)
	}

	// Cross-stripe CoAP probe: root is at the grid corner (stripe 0),
	// node 35 at the far corner (stripe 2), multiple hops away.
	far := sd.Nodes[35]
	if sd.StripeOf(0) == sd.StripeOf(35) {
		t.Fatal("test topology broken: root and target share a stripe")
	}
	far.Server.Resource("status").Get(
		func(string, *coap.Message) *coap.Message { return coap.TextResponse("ok") })
	probes := []string{}
	sd.G.At(sd.G.Now(), func() {
		sd.Root().CoAP.Get(far.Addr(), "status", func(m *coap.Message, err error) {
			probes = append(probes, fmt.Sprintf("probe err=%v ok=%v at=%v", err, err == nil && m.Code.IsSuccess(), sd.Shards[0].K.Now()))
		})
	})

	// Crash a stripe-border node, then recover it.
	victim := radio.NodeID(14)
	sd.G.Schedule(10*time.Second, func() { sd.Crash(victim) })
	sd.G.Schedule(40*time.Second, func() { sd.Recover(victim) })
	sd.G.RunFor(3 * time.Minute)

	var b strings.Builder
	fmt.Fprintf(&b, "converged=%v handoffs=%d windows=%d stats=%+v\n",
		sd.Converged(), sd.G.Handoffs(), sd.G.Windows(), sd.Stats())
	fmt.Fprintf(&b, "probes=%v\n", probes)
	for _, n := range sd.Nodes {
		j, at := n.Router.Joined()
		fmt.Fprintf(&b, "n%d stripe=%d joined=%v at=%v\n", n.ID, sd.StripeOf(n.ID), j, at)
	}
	return b.String()
}

// TestShardedWorkerInvariance is the sharded-engine determinism gate:
// the digest of a full run — convergence, cross-stripe CoAP, crash and
// rejoin — is byte-identical whether the stripes execute on 1, 2, or 4
// workers.
func TestShardedWorkerInvariance(t *testing.T) {
	ref := runShardedScript(t, 1)
	if !strings.Contains(ref, "ok=true") {
		t.Fatalf("cross-stripe probe failed:\n%s", ref)
	}
	if !strings.Contains(ref, "converged=true") {
		t.Fatalf("fleet did not re-converge after crash/recover:\n%s", ref)
	}
	for _, w := range []int{2, 4} {
		if got := runShardedScript(t, w); got != ref {
			t.Fatalf("workers=%d digest differs from workers=1:\n--- w1 ---\n%s--- w%d ---\n%s", w, ref, w, got)
		}
	}
}

// TestShardedMatchesStripeCount pins that stripes are a model parameter
// carried by construction: nodes are assigned to slabs by X coordinate
// and every stripe gets its own substrate.
func TestShardedMatchesStripeCount(t *testing.T) {
	sd := NewShardedStack(shardedGridStack(1), 3)
	if sd.Stripes() != 3 || len(sd.Shards) != 3 {
		t.Fatalf("stripes = %d/%d, want 3", sd.Stripes(), len(sd.Shards))
	}
	counts := make([]int, 3)
	for _, n := range sd.Nodes {
		s := sd.StripeOf(n.ID)
		counts[s]++
		if sd.Shards[s].M.PositionOf(n.ID).X != sd.stack.Topology[int(n.ID)].Pos.X {
			t.Fatalf("node %d not attached to its owning stripe %d", n.ID, s)
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("stripe %d owns no nodes: %v", s, counts)
		}
	}
}

// TestShardedCrossStripeOverride: a PRR override between far-apart
// nodes on different stripes is a distance-free link; the
// extra-announce bookkeeping must mirror the sender's frames into the
// receiver's stripe even though the slabs are not adjacent in range.
func TestShardedCrossStripeOverride(t *testing.T) {
	// A wide two-cluster line: stripe 0 around x=0, stripe 1 around
	// x=1000 — far beyond RangeMax.
	topo := radio.Topology{{X: 0}, {X: 5}, {X: 1000}, {X: 1005}}
	sd := NewShardedStack(Stack{
		Seed:     3,
		Profiles: []Profile{{Name: DefaultProfile}},
		Topology: Uniform(DefaultProfile, topo),
	}, 2)
	if sd.StripeOf(1) == sd.StripeOf(2) {
		t.Fatal("clusters landed on one stripe")
	}
	// Silence the protocol stacks so the only traffic is the raw frames
	// this test injects, then force node 2's radio on.
	for _, n := range sd.Nodes {
		n.Router.Stop()
		n.MAC.Stop()
	}
	rxMedium := sd.Shards[sd.StripeOf(2)].M
	rxMedium.SetListening(2, true)
	rxFrames := func() float64 {
		return sd.Shards[sd.StripeOf(2)].Reg.Counter("radio.rx_frames").Value()
	}

	// The frames are sent from the sender's own stripe kernel: a
	// transmission (and the sim.ShardGroup.Post it triggers) belongs to
	// a stripe's execution inside a window, not to the control timeline.
	tx := sd.Shards[sd.StripeOf(1)]
	send := func() { tx.M.Send(radio.Frame{From: 1, To: 2, Size: 20}) }

	sd.SetLinkPRR(1, 2, 1.0)
	tx.K.At(time.Millisecond, send)
	sd.G.RunUntil(time.Second)
	if got := rxFrames(); got != 1 {
		t.Fatalf("cross-stripe override delivered %v frames, want 1", got)
	}

	// Removing the override stops the mirroring.
	sd.SetLinkPRR(1, 2, -1)
	tx.K.At(sd.G.Now(), send)
	sd.G.RunFor(time.Second)
	if got := rxFrames(); got != 1 {
		t.Fatalf("override removal leaked announcements: rx = %v, want still 1", got)
	}
}
