package rpl

import (
	"time"

	"iiotds/internal/link"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// RNFDConfig parameterizes the collaborative root-failure detector
// modeled on RNFD (paper ref [32]). The idea that makes it cheap: only
// the root's radio neighbors (the "sentinels") monitor it — passively,
// through the DIOs the root sends anyway — and the rest of the network
// learns the outcome through one inexpensive flood. The alternative the
// paper contrasts it with, every node probing the root end-to-end,
// multiplies traffic through the already-loaded funnel region.
type RNFDConfig struct {
	// SuspectTimeout is how long a sentinel tolerates root silence
	// before suspecting failure (default 60 s; set it above the trickle
	// Imax so steady-state silence is not misread).
	SuspectTimeout time.Duration
	// Quorum is how many distinct suspecting sentinels it takes to
	// declare the root dead (default 2).
	Quorum int
}

func (c *RNFDConfig) applyDefaults() {
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 60 * time.Second
	}
	if c.Quorum == 0 {
		c.Quorum = 2
	}
}

// checkInterval is the sentinel's local evaluation period.
const checkInterval = 2 * time.Second

// sentinelETXGate is the link quality required to qualify as a sentinel:
// a node that reaches the root only through a marginal link cannot tell
// silence from loss.
const sentinelETXGate = 2.0

// sentinelMinTx is the unicast history required before the ETX estimate
// is trusted for sentinel qualification.
const sentinelMinTx = 8

type rnfdSeen struct {
	sentinel radio.NodeID
	epoch    uint8
}

// RNFD is the per-node instance of the root-failure detector.
type RNFD struct {
	r   *Router
	cfg RNFDConfig

	epoch         uint8
	lastRootHeard sim.Time
	heardRootEver bool
	wasChild      bool
	localSuspect  bool
	suspects      map[radio.NodeID]sim.Time // sentinel -> when the suspicion was learned
	seen          map[rnfdSeen]bool
	dead          bool
	verdictAt     sim.Time

	checker *sim.Repeater

	// OnVerdict, if set, fires once when this node learns the root died.
	OnVerdict func()
}

// AttachRNFD installs and starts an RNFD instance on the router. Call
// after — or immediately around — Start; the detector begins evaluating
// on its checkInterval.
func (r *Router) AttachRNFD(cfg RNFDConfig) *RNFD {
	cfg.applyDefaults()
	f := &RNFD{
		r:        r,
		cfg:      cfg,
		suspects: make(map[radio.NodeID]sim.Time),
		seen:     make(map[rnfdSeen]bool),
	}
	r.rnfd = f
	f.lastRootHeard = r.k.Now()
	f.checker = r.k.Every(checkInterval, checkInterval/4, f.check)
	return f
}

// Stop halts the detector.
func (f *RNFD) Stop() {
	if f.checker != nil {
		f.checker.Stop()
	}
}

// Dead reports whether this node considers the root failed, and when the
// verdict was reached.
func (f *RNFD) Dead() (bool, sim.Time) { return f.dead, f.verdictAt }

// SuspectCount returns the number of distinct suspecting sentinels known
// to this node in the current epoch.
func (f *RNFD) SuspectCount() int { return len(f.suspects) }

// rootHeard is called by the router whenever a DIO arrives directly from
// the root: the strongest possible evidence of liveness.
func (f *RNFD) rootHeard() {
	f.lastRootHeard = f.r.k.Now()
	f.heardRootEver = true
	f.localSuspect = false
	if len(f.suspects) > 0 {
		f.suspects = make(map[radio.NodeID]sim.Time)
	}
	if f.dead {
		// Root came back: open a new epoch so stale suspicions from the
		// previous incarnation cannot re-kill it.
		f.dead = false
		f.epoch++
	}
}

// check runs the sentinel-local failure evaluation.
func (f *RNFD) check() {
	if f.dead || f.r.isRoot {
		return
	}
	// Only the root's *good* unicast neighbors act as sentinels: nodes
	// whose preferred parent is the root over a solid link (ETX gate).
	// The status is sticky — during the death cascade former children
	// reparent through siblings whose state is equally doomed, and they
	// must keep monitoring through that churn. Gray-region nodes that
	// transiently latch onto the root never qualify, which keeps
	// chronic false suspicion out.
	if f.r.parent == f.r.root {
		// The link must be *proven* good: enough unicast history that
		// the estimate is past its optimistic prior. Gray-region nodes
		// that briefly latch onto the root fail this before their ETX
		// estimate catches up with reality.
		if e := f.r.lnk.Neighbors().Lookup(f.r.root); e != nil &&
			e.TxCount >= sentinelMinTx && e.ETX() < sentinelETXGate {
			if !f.wasChild {
				f.r.rec.Emit(int32(f.r.id), trace.RNFDSentinel, int64(e.TxCount), 0, e.ETX(), 0)
			}
			f.wasChild = true
		}
	}
	if !f.heardRootEver || !f.wasChild {
		return
	}
	if f.r.k.Now()-f.lastRootHeard < f.cfg.SuspectTimeout {
		return
	}
	if !f.localSuspect {
		f.localSuspect = true
		f.suspects[f.r.id] = f.r.k.Now()
		f.r.reg.Counter("rnfd.suspects_raised").Inc()
		f.r.rec.Emit(int32(f.r.id), trace.RNFDSuspect, int64(f.epoch), int64(f.r.k.Now()-f.lastRootHeard), 0, 0)
		f.flood(suspect{Sentinel: f.r.id, Epoch: f.epoch}.encode())
		f.evaluate()
	}
}

func (f *RNFD) onMessage(from radio.NodeID, raw []byte) {
	switch msgType(raw[0]) {
	case msgSuspect:
		s, err := decodeSuspect(raw)
		if err != nil || s.Epoch != f.epoch {
			return
		}
		key := rnfdSeen{sentinel: s.Sentinel, epoch: s.Epoch}
		if f.seen[key] {
			return
		}
		f.seen[key] = true
		f.suspects[s.Sentinel] = f.r.k.Now()
		f.r.rec.Emit(int32(f.r.id), trace.RNFDSuspectHeard, int64(s.Sentinel), int64(len(f.suspects)), 0, 0)
		// Re-flood once so the suspicion spreads beyond radio range.
		f.flood(raw)
		f.evaluate()
	case msgVerdict:
		v, err := decodeVerdict(raw)
		if err != nil || v.Root != f.r.root || v.Epoch != f.epoch {
			return
		}
		if !f.dead {
			f.declareDead()
			f.flood(raw)
		}
	}
	_ = from
}

func (f *RNFD) evaluate() {
	if f.dead {
		return
	}
	// Suspicions decay: a verdict needs a quorum of sentinels suspecting
	// within one window, not isolated doubts accumulated over hours.
	now := f.r.k.Now()
	fresh := 0
	for id, at := range f.suspects {
		if now-at > 2*f.cfg.SuspectTimeout {
			delete(f.suspects, id)
			continue
		}
		fresh++
	}
	if fresh < f.cfg.Quorum {
		return
	}
	f.declareDead()
	f.flood(verdict{Root: f.r.root, Epoch: f.epoch}.encode())
}

func (f *RNFD) declareDead() {
	f.dead = true
	f.verdictAt = f.r.k.Now()
	f.r.rootDead = true
	f.r.reg.Counter("rnfd.verdicts").Inc()
	f.r.rec.Emit(int32(f.r.id), trace.RNFDVerdict, int64(f.r.root), int64(len(f.suspects)), 0, 0)
	if f.OnVerdict != nil {
		f.OnVerdict()
	}
}

func (f *RNFD) flood(raw []byte) {
	f.r.reg.Counter("rnfd.msgs_sent").Inc()
	f.r.lnk.Broadcast(link.ProtoRouting, raw)
}
