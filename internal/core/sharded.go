// Sharded deployments: one fleet split over several simulation kernels
// so a single run uses multiple cores (DESIGN.md §9).
//
// The deployment plane is cut into vertical slabs ("stripes") by X
// coordinate. Each stripe owns a full substrate — kernel, medium,
// packet-buffer pool, metrics registry — and hosts the complete stacks
// of its nodes. Stripes share virtual time through a sim.ShardGroup
// whose lookahead is the minimum frame airtime; transmissions near a
// slab boundary are mirrored into the audible neighbor stripes as
// radio.Announcements carried across the group barrier.
//
// The stripe count is a MODEL parameter: it decides which frames cross
// a barrier, so results depend on it, exactly like they depend on the
// topology. The worker count (ShardGroup.SetWorkers) is pure execution
// policy — a run is byte-identical at any worker count.
package core

import (
	"fmt"
	"math"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// Shard is one stripe's substrate.
type Shard struct {
	K   *sim.Kernel
	M   *radio.Medium
	Reg *metrics.Registry
}

// ShardedDeployment is a fleet running across several stripes under one
// ShardGroup. The fleet's node-level operations (fault.Target among
// them) are the ones a flat Deployment has; what this type adds is the
// stripes, the cross-stripe announcements, and medium control
// (fault.MediumCtl) fanned to the owning stripe(s).
type ShardedDeployment struct {
	Fleet
	G      *sim.ShardGroup
	Shards []*Shard

	stripes int
	minX    float64
	slabW   float64

	// extraAnnounce[s][t] counts PRR overrides whose sender lives on
	// stripe s and receiver on stripe t: such links may be audible at
	// any distance, so while any exist every frame from s is announced
	// to t regardless of position.
	extraAnnounce [][]int
	overPairs     map[[2]radio.NodeID][2]int // installed override -> (src stripe, dst stripe)

	out []outbox // by source stripe
}

// outbox is what one stripe has announced since the last barrier: a
// batch of announcements per destination stripe, and the arena their
// payload bytes live in (one copy per frame, shared by every
// destination). The source stripe's execution appends inside a window;
// the group's barrier drain applies the batches and, after the last of
// them, truncates the arena. Nothing here is allocated per frame once
// the slices have grown to a window's worth.
type outbox struct {
	to      [][]radio.Announcement
	apply   []func() int // apply[t] drains to[t]; what the group is handed, built once
	pending int          // non-empty batches
	arena   []byte
}

// NewShardedStack builds and starts a deployment striped over the given
// number of stripes. The stack description is the same one NewStack
// takes, with one restriction: tracing is not supported on the sharded
// engine (the recorder assumes one kernel).
func NewShardedStack(cfg Stack, stripes int) *ShardedDeployment {
	if stripes < 1 {
		panic("core: NewShardedStack needs at least one stripe")
	}
	cfg.applyDefaults()
	if cfg.TraceCapacity > 0 {
		panic("core: sharded stacks do not support tracing")
	}

	sd := &ShardedDeployment{stripes: stripes}
	sd.stack = cfg
	sd.ctl = sd

	// Slab geometry over the topology's X extent. Nodes are assigned by
	// clamped slab index, so outliers land in the edge stripes.
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, ns := range cfg.Topology {
		minX = math.Min(minX, ns.Pos.X)
		maxX = math.Max(maxX, ns.Pos.X)
	}
	sd.minX = minX
	sd.slabW = (maxX - minX) / float64(stripes)
	if sd.slabW <= 0 {
		sd.slabW = 1 // degenerate: all nodes share an X; everyone lands in stripe 0
	}
	sd.stripeOf = make([]int, len(cfg.Topology))
	for i, ns := range cfg.Topology {
		sd.stripeOf[i] = sd.stripeAt(ns.Pos.X)
	}

	// Per-stripe substrates. Stripe seeds derive from the deployment
	// seed by a fixed mix, so one Spec seed still pins the whole run.
	for s := 0; s < stripes; s++ {
		k := sim.New(cfg.Seed + int64(s)*1_000_003)
		reg := metrics.NewRegistry()
		sd.Shards = append(sd.Shards, &Shard{K: k, M: radio.NewMedium(k, mediumParams, reg), Reg: reg})
		sd.media = append(sd.media, sd.Shards[s].M)
	}
	// Lookahead: the minimum cross-stripe visibility delay is the
	// airtime of a zero-payload frame (propagation is instantaneous in
	// the model).
	sd.G = sim.NewShardGroup(sd.Shards[0].M.Airtime(0), sd.Kernels()...)
	sd.clk = sd.G

	sd.extraAnnounce = make([][]int, stripes)
	for s := range sd.extraAnnounce {
		sd.extraAnnounce[s] = make([]int, stripes)
	}
	sd.overPairs = make(map[[2]radio.NodeID][2]int)

	// Announce glue: every accepted transmission on stripe s is batched
	// toward each other stripe t whose slab it could be audible in.
	sd.out = make([]outbox, stripes)
	for s := range sd.Shards {
		ob := &sd.out[s]
		ob.to = make([][]radio.Announcement, stripes)
		ob.apply = make([]func() int, stripes)
		for t := range sd.Shards {
			ob.apply[t] = func() int { return sd.applyBatch(ob, t) }
		}
		sd.Shards[s].M.SetAnnounce(func(f radio.Frame, pos radio.Position, start, end sim.Time) {
			sd.announce(s, f, pos, start, end)
		})
	}
	sd.populate()
	return sd
}

// announce queues stripe s's transmission for every stripe that could
// hear it. It runs inside s's window execution and touches only s's
// outbox and s's rows of the group's handoff queues.
func (sd *ShardedDeployment) announce(s int, f radio.Frame, pos radio.Position, start, end sim.Time) {
	ob := &sd.out[s]
	var a radio.Announcement
	captured := false
	for t := range sd.Shards {
		if t == s || !sd.announces(s, t, pos) {
			continue
		}
		if !captured {
			a, ob.arena = radio.NewAnnouncement(f, pos, start, end, ob.arena)
			captured = true
		}
		if len(ob.to[t]) == 0 {
			ob.pending++
			sd.G.PostBatch(s, t, ob.apply[t])
		}
		ob.to[t] = append(ob.to[t], a)
	}
}

// applyBatch applies, at the barrier, what ob's stripe announced toward
// stripe t, in the order it was sent. The group drains (src, dst) pairs
// in a fixed order, so every loss draw a ghost frame takes from t's
// kernel lands at the same place in that RNG's stream at any worker
// count. ApplyForeign transmits nothing, so no batch grows meanwhile.
func (sd *ShardedDeployment) applyBatch(ob *outbox, t int) int {
	batch := ob.to[t]
	for i := range batch {
		sd.Shards[t].M.ApplyForeign(batch[i])
	}
	ob.to[t] = batch[:0]
	if ob.pending--; ob.pending == 0 {
		ob.arena = ob.arena[:0]
	}
	return len(batch)
}

// stripeAt maps an X coordinate to its owning stripe (clamped: the
// node at max X belongs to the last stripe).
func (sd *ShardedDeployment) stripeAt(x float64) int {
	s := int((x - sd.minX) / sd.slabW)
	if s < 0 {
		s = 0
	}
	if s >= sd.stripes {
		s = sd.stripes - 1
	}
	return s
}

// announces reports whether a frame sent from pos on stripe s must be
// mirrored to stripe t: within interference range of t's slab, or a
// distance-free override link currently points from s into t.
func (sd *ShardedDeployment) announces(s, t int, pos radio.Position) bool {
	if sd.extraAnnounce[s][t] > 0 {
		return true
	}
	lo := sd.minX + float64(t)*sd.slabW
	hi := lo + sd.slabW
	r := mediumParams.RangeMax
	return pos.X > lo-r && pos.X < hi+r
}

// Stripes returns the stripe count.
func (sd *ShardedDeployment) Stripes() int { return len(sd.Shards) }

// StripeOf returns the stripe that owns node id.
func (sd *ShardedDeployment) StripeOf(id radio.NodeID) int { return sd.stripeOf[int(id)] }

// SetDown marks a node crashed/recovered on its owning stripe's medium
// (fault.MediumCtl).
func (sd *ShardedDeployment) SetDown(id radio.NodeID, down bool) {
	sd.Medium(id).SetDown(id, down)
}

// SetLinkFilter installs a delivery veto on every stripe
// (fault.MediumCtl). Filters are keyed by deployment-global IDs, so one
// function serves local and ghost fan-out alike.
func (sd *ShardedDeployment) SetLinkFilter(f radio.LinkFilter) {
	for _, sh := range sd.Shards {
		sh.M.SetLinkFilter(f)
	}
}

// SetLinkPRR overrides the PRR of the directed link from->to
// (fault.MediumCtl). The override is installed on both endpoint
// stripes — the sender's for its local fan-out, the receiver's for
// ghost fan-out — and cross-stripe overrides additionally force
// announcements between the two stripes (override links are
// distance-free, so slab adjacency cannot be relied on).
func (sd *ShardedDeployment) SetLinkPRR(from, to radio.NodeID, prr float64) {
	key := [2]radio.NodeID{from, to}
	ss, ts := sd.stripeOf[int(from)], sd.stripeOf[int(to)]
	sd.Shards[ss].M.SetLinkPRR(from, to, prr)
	if ts != ss {
		sd.Shards[ts].M.SetLinkPRR(from, to, prr)
	}
	if prr < 0 {
		if pair, ok := sd.overPairs[key]; ok {
			delete(sd.overPairs, key)
			if pair[0] != pair[1] {
				sd.extraAnnounce[pair[0]][pair[1]]--
			}
		}
		return
	}
	if _, ok := sd.overPairs[key]; !ok {
		sd.overPairs[key] = [2]int{ss, ts}
		if ss != ts {
			sd.extraAnnounce[ss][ts]++
		}
	}
}

// Stats aggregates the scheduling counters of every stripe kernel.
func (sd *ShardedDeployment) Stats() sim.Stats { return sd.G.Stats() }

// String summarizes the sharding layout for logs.
func (sd *ShardedDeployment) String() string {
	return fmt.Sprintf("sharded{stripes=%d nodes=%d slab=%.1fm lookahead=%v}",
		len(sd.Shards), len(sd.Nodes), sd.slabW, sd.G.Lookahead())
}
