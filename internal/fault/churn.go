package fault

import (
	"math/rand"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// This file is the churn engine: generator processes that drive an
// Injector from the simulation kernel with a sustained, reproducible
// fault load — exponential crash/recover churn over a node subset, link
// flapping, Gilbert–Elliott burst-loss degradation, and periodic
// partition/heal storms. Every stochastic choice is drawn from one
// per-engine rand.Rand seeded at construction, and every draw happens
// inside a kernel callback, so a given (config, seed) pair produces
// exactly one schedule: the E14 soak is byte-identical run-to-run and at
// any trial-runner parallelism (DESIGN.md §5).

// GELink puts one link pair under Gilbert–Elliott burst-loss modulation:
// a two-state Markov chain steps every ChurnConfig.GEStep; in the Good
// state the link delivers at GoodPRR, in the Bad state at BadPRR. Bursts
// of loss (mean length GEStep/PBadGood) are what distinguishes this from
// the medium's independent per-frame loss.
type GELink struct {
	A, B radio.NodeID
	// PGoodBad and PBadGood are the per-step transition probabilities.
	PGoodBad, PBadGood float64
	// GoodPRR (default 1) and BadPRR are the delivery ratios installed
	// in each state.
	GoodPRR, BadPRR float64
}

// ChurnConfig parameterizes a churn schedule. Zero-valued sections
// disable their generator: MeanUp == 0 disables crash/recover churn,
// MeanFlap == 0 disables flapping, GEStep == 0 disables burst loss, and
// MeanPartition == 0 disables partition storms.
type ChurnConfig struct {
	// Nodes is the crash/recover candidate subset. List only nodes the
	// experiment may lose — never the border router if the DODAG must
	// survive the soak.
	Nodes []radio.NodeID
	// A node stays up for MinUp plus an exponential draw of mean MeanUp,
	// then crashes; it stays down for MinDown plus an exponential draw
	// of mean MeanDown, then recovers. The floors model the reality that
	// devices neither fail nor reboot instantaneously, and they bound
	// how quickly a just-recovered node can be re-crashed — which is
	// what gives the DODAG time to re-admit it.
	MeanUp, MinUp     time.Duration
	MeanDown, MinDown time.Duration

	// FlapLinks flap between full delivery and FlapPRR, toggling after
	// exponential holds of mean MeanFlap.
	FlapLinks [][2]radio.NodeID
	MeanFlap  time.Duration
	FlapPRR   float64

	// GELinks are modulated by per-link Gilbert–Elliott chains stepped
	// every GEStep.
	GELinks []GELink
	GEStep  time.Duration

	// Partition storms: after exponential gaps of mean MeanPartition,
	// Groups is installed for PartitionHold, then healed.
	MeanPartition time.Duration
	PartitionHold time.Duration
	Groups        [][]radio.NodeID
}

// Churn drives an Injector with the generated fault schedule. Like the
// injector's mutating methods, Start, Stop, and the accessors must run
// on the kernel goroutine (between kernel runs or inside callbacks).
type Churn struct {
	inj *Injector
	k   *sim.Kernel
	rng *rand.Rand
	cfg ChurnConfig

	started bool
	stopped bool
	down    map[radio.NodeID]bool

	crashes     int
	recoveries  int
	flapDown    []bool
	geBad       []bool
	partitioned bool

	// OnCrash and OnRecover, when set, observe the schedule as it is
	// applied (after the injector acted) — e.g. E14 arms its rejoin
	// probe from OnRecover.
	OnCrash   func(id radio.NodeID)
	OnRecover func(id radio.NodeID)
}

// NewChurn creates a churn engine over inj, drawing its schedule from a
// dedicated generator seeded with seed (independent of the kernel's own
// RNG, so the fault schedule does not shift when protocol randomness
// changes).
func NewChurn(inj *Injector, seed int64, cfg ChurnConfig) *Churn {
	for i := range cfg.GELinks {
		if cfg.GELinks[i].GoodPRR == 0 {
			cfg.GELinks[i].GoodPRR = 1
		}
	}
	return &Churn{
		inj:      inj,
		k:        inj.k,
		rng:      rand.New(rand.NewSource(seed)),
		cfg:      cfg,
		down:     make(map[radio.NodeID]bool),
		flapDown: make([]bool, len(cfg.FlapLinks)),
		geBad:    make([]bool, len(cfg.GELinks)),
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
	if c.cfg.MeanUp > 0 {
		for _, id := range c.cfg.Nodes {
			c.armCrash(id)
		}
	}
	if c.cfg.MeanFlap > 0 {
		for i := range c.cfg.FlapLinks {
			c.armFlap(i)
		}
	}
	if c.cfg.GEStep > 0 && len(c.cfg.GELinks) > 0 {
		c.k.Schedule(c.cfg.GEStep, c.geStep)
	}
	if c.cfg.MeanPartition > 0 && len(c.cfg.Groups) > 0 {
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
	for i, l := range c.cfg.FlapLinks {
		if c.flapDown[i] {
			c.inj.RestoreLink(l[0], l[1])
			c.flapDown[i] = false
		}
	}
	for i, g := range c.cfg.GELinks {
		c.inj.RestoreLink(g.A, g.B)
		c.geBad[i] = false
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

// Down reports whether the engine currently holds id crashed.
func (c *Churn) Down(id radio.NodeID) bool { return c.down[id] }

func (c *Churn) armCrash(id radio.NodeID) {
	delay := c.cfg.MinUp + c.expDur(c.cfg.MeanUp)
	c.k.Schedule(delay, func() {
		if c.stopped {
			return
		}
		c.down[id] = true
		c.crashes++
		c.inj.Crash(id)
		if c.OnCrash != nil {
			c.OnCrash(id)
		}
		c.armRecover(id)
	})
}

func (c *Churn) armRecover(id radio.NodeID) {
	delay := c.cfg.MinDown + c.expDur(c.cfg.MeanDown)
	c.k.Schedule(delay, func() {
		// Deliberately no stopped check before the recovery itself:
		// Stop never strands a node down.
		c.down[id] = false
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

func (c *Churn) armFlap(i int) {
	delay := c.expDur(c.cfg.MeanFlap)
	c.k.Schedule(delay, func() {
		if c.stopped {
			return
		}
		l := c.cfg.FlapLinks[i]
		if c.flapDown[i] {
			c.inj.RestoreLink(l[0], l[1])
		} else {
			c.inj.DegradeLink(l[0], l[1], c.cfg.FlapPRR)
		}
		c.flapDown[i] = !c.flapDown[i]
		c.armFlap(i)
	})
}

// geStep advances every Gilbert–Elliott chain one step. The loop order
// is fixed (config order), so the per-link draw sequence — and therefore
// the whole burst schedule — is deterministic.
func (c *Churn) geStep() {
	if c.stopped {
		return
	}
	for i := range c.cfg.GELinks {
		g := &c.cfg.GELinks[i]
		p := g.PGoodBad
		if c.geBad[i] {
			p = g.PBadGood
		}
		if c.rng.Float64() < p {
			c.geBad[i] = !c.geBad[i]
			prr := g.GoodPRR
			if c.geBad[i] {
				prr = g.BadPRR
			}
			c.inj.DegradeLink(g.A, g.B, prr)
		}
	}
	c.k.Schedule(c.cfg.GEStep, c.geStep)
}

func (c *Churn) armPartition() {
	gap := c.expDur(c.cfg.MeanPartition)
	c.k.Schedule(gap, func() {
		if c.stopped {
			return
		}
		c.partitioned = true
		c.inj.Partition(c.cfg.Groups...)
		c.k.Schedule(c.cfg.PartitionHold, func() {
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
