package scenario

import (
	"math/rand"
	"time"

	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// This file is the churn engine: generator processes that drive a
// fault.Injector from the simulation kernel with the sustained,
// reproducible fault load a FaultSpec describes — exponential
// crash/recover churn over a node selection, one flapping link, one
// Gilbert–Elliott burst-loss link, and periodic partition storms. Every
// stochastic choice is drawn from one per-engine rand.Rand seeded at
// construction, and every draw happens inside a kernel callback, so a
// given (spec, fleet size, seed) triple produces exactly one schedule:
// the E14 soak is byte-identical run-to-run and at any trial-runner
// parallelism (DESIGN.md §5).
//
// The draw order is part of the reproducer contract: Start arms the
// crashes in node order (one draw each), then the flap (one draw); the
// Gilbert–Elliott chain draws once per step and the partition storm
// once per gap.

// Churn drives an Injector with the schedule a FaultSpec generates.
// Like the injector's mutating methods, Start, Stop, and the accessors
// must run on the kernel goroutine (between kernel runs or inside
// callbacks).
type Churn struct {
	inj   *fault.Injector
	k     *sim.Kernel
	rng   *rand.Rand
	spec  FaultSpec
	nodes []radio.NodeID // crash/recover candidates (spec.Churn resolved)
	group []radio.NodeID // the side a partition storm cleaves off

	started bool
	stopped bool

	crashes     int
	recoveries  int
	flapDown    bool
	geBad       bool
	partitioned bool

	// OnCrash and OnRecover, when set, observe the schedule as it is
	// applied (after the injector acted) — e.g. E14 arms its rejoin
	// probe from OnRecover.
	OnCrash   func(id radio.NodeID)
	OnRecover func(id radio.NodeID)
}

// newChurn creates a churn engine over inj for an n-node fleet, its
// callbacks on k (the kernel inj runs on), drawing its schedule from a
// dedicated generator seeded with seed — independent of the kernel's
// own RNG, so the fault schedule does not shift when protocol
// randomness changes.
func newChurn(inj *fault.Injector, k *sim.Kernel, seed int64, spec FaultSpec, n int) *Churn {
	return &Churn{
		inj:   inj,
		k:     k,
		rng:   rand.New(rand.NewSource(seed)),
		spec:  spec,
		nodes: spec.Churn.Resolve(n),
		group: spec.Part.Resolve(n),
	}
}

// expDur draws an exponential duration of the given mean.
func (c *Churn) expDur(mean time.Duration) time.Duration {
	return time.Duration(c.rng.ExpFloat64() * float64(mean))
}

// Start launches the generator processes. Idempotent.
func (c *Churn) Start() {
	if c.started {
		return
	}
	c.started = true
	c.stopped = false
	if c.spec.churns() {
		for _, id := range c.nodes {
			c.armCrash(id)
		}
	}
	if c.spec.flaps() {
		c.armFlap()
	}
	if c.spec.bursts() {
		c.k.Schedule(c.spec.GEStep, c.geStep)
	}
	if c.spec.storms() {
		c.armPartition()
	}
}

// Stop quiesces the engine: no new crashes, flaps, chain steps, or
// storms are generated; link overrides are restored and an active
// partition is healed. Recoveries already owed to crashed nodes still
// fire — a soak's drain phase ends with every node back up.
func (c *Churn) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	if c.flapDown {
		c.inj.RestoreLink(link(c.spec.FlapLink))
	}
	if c.spec.bursts() {
		c.inj.RestoreLink(link(c.spec.GELink))
	}
	if c.partitioned {
		c.inj.Heal()
		c.partitioned = false
	}
}

// Crashes returns the number of crashes injected so far.
func (c *Churn) Crashes() int { return c.crashes }

// Recoveries returns the number of completed crash→recover cycles.
func (c *Churn) Recoveries() int { return c.recoveries }

// link converts a spec's node pair to radio IDs.
func link(l [2]int) (a, b radio.NodeID) { return radio.NodeID(l[0]), radio.NodeID(l[1]) }

func (c *Churn) armCrash(id radio.NodeID) {
	delay := c.spec.MinUp + c.expDur(c.spec.MeanUp)
	c.k.Schedule(delay, func() {
		if c.stopped {
			return
		}
		c.crashes++
		c.inj.Crash(id)
		if c.OnCrash != nil {
			c.OnCrash(id)
		}
		c.armRecover(id)
	})
}

func (c *Churn) armRecover(id radio.NodeID) {
	delay := c.spec.MinDown + c.expDur(c.spec.MeanDown)
	c.k.Schedule(delay, func() {
		// Deliberately no stopped check before the recovery itself:
		// Stop never strands a node down.
		c.recoveries++
		c.inj.Recover(id)
		if c.OnRecover != nil {
			c.OnRecover(id)
		}
		if !c.stopped {
			c.armCrash(id)
		}
	})
}

func (c *Churn) armFlap() {
	delay := c.expDur(c.spec.FlapEvery)
	c.k.Schedule(delay, func() {
		if c.stopped {
			return
		}
		a, b := link(c.spec.FlapLink)
		if c.flapDown {
			c.inj.RestoreLink(a, b)
		} else {
			c.inj.DegradeLink(a, b, c.spec.FlapPRR)
		}
		c.flapDown = !c.flapDown
		c.armFlap()
	})
}

// geStep advances the Gilbert–Elliott chain one step: the link delivers
// fully in the good state and at GEBadPRR in the bad one, so losses
// come in bursts of mean length GEStep/GEPBadGood rather than as the
// medium's independent per-frame loss.
func (c *Churn) geStep() {
	if c.stopped {
		return
	}
	p := c.spec.GEPGoodBad
	if c.geBad {
		p = c.spec.GEPBadGood
	}
	if c.rng.Float64() < p {
		c.geBad = !c.geBad
		prr := 1.0
		if c.geBad {
			prr = c.spec.GEBadPRR
		}
		a, b := link(c.spec.GELink)
		c.inj.DegradeLink(a, b, prr)
	}
	c.k.Schedule(c.spec.GEStep, c.geStep)
}

func (c *Churn) armPartition() {
	gap := c.expDur(c.spec.PartEvery)
	c.k.Schedule(gap, func() {
		if c.stopped {
			return
		}
		c.partitioned = true
		c.inj.Partition(c.group)
		c.k.Schedule(c.spec.PartHold, func() {
			if !c.partitioned {
				return // Stop already healed
			}
			c.partitioned = false
			c.inj.Heal()
			if !c.stopped {
				c.armPartition()
			}
		})
	})
}
