package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
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

// ballast makes the group share windows with its workers on a fleet too
// small to: sharing starts at an events-per-window average a few dozen
// nodes never reach, so every 20 ms each stripe fires a burst of no-op
// events that lifts it for the next several windows. The bursts move
// barriers, which is model-visible — two runs compare only if both or
// neither carry them.
func ballast(ks []*sim.Kernel) {
	for _, k := range ks {
		k.Every(20*time.Millisecond, 0, func() {
			for j := 0; j < 32; j++ {
				k.Schedule(time.Duration(j)*50*time.Microsecond, func() {})
			}
		})
	}
}

// noForeignLate fails the test if any stripe's medium dropped a
// cross-stripe frame because its announcement arrived after the frame
// had ended — what a barrier placed too late would look like.
func noForeignLate(t *testing.T, sd *ShardedDeployment) {
	t.Helper()
	if n := sd.Counter("radio.foreign_late"); n != 0 {
		t.Errorf("%v announced frames reached their stripe after they had ended", n)
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
	ballast(sd.Kernels())
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
	sd.Sched().At(sd.Now(), func() {
		sd.Root().CoAP.Get(far.Addr(), "status", func(m *coap.Message, err error) {
			probes = append(probes, fmt.Sprintf("probe err=%v ok=%v at=%v", err, err == nil && m.Code.IsSuccess(), sd.Shards[0].K.Now()))
		})
	})

	// Crash a stripe-border node, then recover it.
	victim := radio.NodeID(14)
	sd.Sched().Schedule(10*time.Second, func() { sd.Crash(victim) })
	sd.Sched().Schedule(40*time.Second, func() { sd.Recover(victim) })
	sd.G.RunFor(3 * time.Minute)
	noForeignLate(t, sd)
	if shared := sd.G.SharedWindows(); (shared > 0) != (sd.G.Workers() > 1) {
		t.Fatalf("workers=%d (%d effective): %d of %d windows shared", workers, sd.G.Workers(), shared, sd.G.Windows())
	}

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
	// transmission (and the handoff it queues on the group) belongs to
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
	noForeignLate(t, sd)
}

// TestAnnounceAllocFree: on a warmed deployment a frame that crosses the
// stripe boundary costs no allocation — not the announcement and its
// payload copy on the sending stripe (the reused batch and arena), not
// the handoff (one prebuilt apply per window), and on the receiving
// stripe nothing beyond the pooled buffer and transmission launch
// reuses.
func TestAnnounceAllocFree(t *testing.T) {
	// Four nodes 10 m apart, cut between nodes 1 and 2: every frame is
	// audible across the boundary.
	sd := NewShardedStack(Stack{
		Seed:     3,
		Profiles: []Profile{{Name: DefaultProfile}},
		Topology: Uniform(DefaultProfile, radio.Topology{{X: 0}, {X: 10}, {X: 20}, {X: 30}}),
	}, 2)
	if sd.StripeOf(1) == sd.StripeOf(2) {
		t.Fatal("the cut is not between nodes 1 and 2")
	}
	// Only the raw frames below are on the air, and every radio hears them.
	for _, n := range sd.Nodes {
		n.Router.Stop()
		n.MAC.Stop()
		sd.Medium(n.ID).SetListening(n.ID, true)
	}
	tx, rx := sd.Shards[sd.StripeOf(1)], sd.Shards[sd.StripeOf(2)]
	body := make([]byte, 24)
	send := func() {
		b := tx.M.Buffers().Get()
		b.Append(body)
		tx.M.Send(radio.Frame{From: 1, To: radio.Broadcast, Payload: b})
		b.Release()
	}
	cycle := func() {
		tx.K.At(sd.G.Now(), send)
		sd.G.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	handoffs, heard := sd.G.Handoffs(), rx.Reg.Counter("radio.rx_frames").Value()
	const runs = 100
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Errorf("a boundary-crossing frame costs %.2f allocs, want 0", avg)
	}
	// AllocsPerRun calls cycle once more than it measures.
	if got := sd.G.Handoffs() - handoffs; got != runs+1 {
		t.Errorf("%d handoffs for %d frames", got, runs+1)
	}
	if got := rx.Reg.Counter("radio.rx_frames").Value() - heard; got != 2*(runs+1) {
		t.Errorf("the far stripe's two nodes received %v frames, want %d", got, 2*(runs+1))
	}
	noForeignLate(t, sd)
}
