// Package fault provides failure injection for the emulation — crashes,
// recoveries, network partitions, and link degradation on a schedule —
// plus the reliability ledger that turns injected faults into the §V-A
// metrics: MTTF, MTTR, and availability.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// Target is what the injector crashes and recovers: the deployment layer
// implements it by stopping/starting a node's full protocol stack.
type Target interface {
	Crash(id radio.NodeID)
	Recover(id radio.NodeID)
}

// MediumCtl is the radio-control surface the injector needs.
// *radio.Medium satisfies it for flat deployments; a sharded deployment
// implements it by fanning each operation to the owning stripe(s).
type MediumCtl interface {
	SetDown(id radio.NodeID, down bool)
	SetLinkFilter(f radio.LinkFilter)
	SetLinkPRR(from, to radio.NodeID, prr float64)
}

// Injector applies faults to a deployment, either immediately (Crash,
// Partition, ...) or on a schedule (CrashAt, PartitionAt, ...).
//
// Thread contract: every mutating method — the immediate operations and
// the callbacks the *At methods schedule — must run on the simulation
// kernel's goroutine (directly between kernel runs, or inside a kernel
// callback such as a Churn generator). That is what keeps injected fault
// sequences deterministic. The read-only Partitioned accessor is the one
// exception: it is guarded by a mutex so test goroutines may poll it
// while the kernel runs elsewhere.
type Injector struct {
	k      *sim.Kernel
	m      MediumCtl
	target Target
	ledger *Ledger
	rec    *trace.Recorder

	mu          sync.Mutex // guards partitioned and groups (see above)
	partitioned bool
	groups      map[radio.NodeID]int
}

// NewInjector creates an injector whose scheduled faults run on k: a
// flat deployment's kernel, or a sharded one's control timeline, whose
// callbacks run at group barriers — the only instants at which every
// stripe is quiescent and cross-stripe mutation is legal. target may be
// nil if only link faults are used; ledger may be nil to skip
// accounting.
func NewInjector(k *sim.Kernel, m MediumCtl, target Target, ledger *Ledger) *Injector {
	return &Injector{k: k, m: m, target: target, ledger: ledger}
}

// SetRecorder installs the flight recorder injected faults are traced
// into (FaultCrash/FaultRecover/FaultPartition/FaultHeal/FaultLink).
func (inj *Injector) SetRecorder(rec *trace.Recorder) { inj.rec = rec }

// Crash takes node id down immediately: the target's stack is stopped,
// the radio stops delivering to it, and the ledger records the failure.
func (inj *Injector) Crash(id radio.NodeID) {
	if inj.target != nil {
		inj.target.Crash(id)
	}
	inj.m.SetDown(id, true)
	if inj.ledger != nil {
		inj.ledger.RecordFailure(fmt.Sprintf("node-%d", id), inj.k.Now())
	}
	inj.rec.Emit(int32(id), trace.FaultCrash, 0, 0, 0, 0)
}

// Recover restarts a crashed node immediately.
func (inj *Injector) Recover(id radio.NodeID) {
	inj.m.SetDown(id, false)
	if inj.target != nil {
		inj.target.Recover(id)
	}
	if inj.ledger != nil {
		inj.ledger.RecordRepair(fmt.Sprintf("node-%d", id), inj.k.Now())
	}
	inj.rec.Emit(int32(id), trace.FaultRecover, 0, 0, 0, 0)
}

// CrashAt schedules a crash of node id at absolute time t.
func (inj *Injector) CrashAt(t time.Duration, id radio.NodeID) {
	inj.k.At(t, func() { inj.Crash(id) })
}

// RecoverAt schedules a recovery of node id at absolute time t.
func (inj *Injector) RecoverAt(t time.Duration, id radio.NodeID) {
	inj.k.At(t, func() { inj.Recover(id) })
}

// Partition splits the radio medium into groups immediately: frames only
// pass between nodes of the same group. Nodes not listed form group 0.
func (inj *Injector) Partition(groups ...[]radio.NodeID) {
	gm := make(map[radio.NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			gm[id] = i + 1
		}
	}
	inj.mu.Lock()
	inj.groups = gm
	inj.partitioned = true
	inj.mu.Unlock()
	inj.m.SetLinkFilter(func(from, to radio.NodeID) bool {
		return gm[from] == gm[to]
	})
	inj.rec.Emit(-1, trace.FaultPartition, int64(len(groups)), 0, 0, 0)
}

// Heal removes the partition immediately.
func (inj *Injector) Heal() {
	inj.mu.Lock()
	inj.partitioned = false
	inj.mu.Unlock()
	inj.m.SetLinkFilter(nil)
	inj.rec.Emit(-1, trace.FaultHeal, 0, 0, 0, 0)
}

// PartitionAt schedules a partition into groups at time t.
func (inj *Injector) PartitionAt(t time.Duration, groups ...[]radio.NodeID) {
	inj.k.At(t, func() { inj.Partition(groups...) })
}

// HealAt removes the partition at time t.
func (inj *Injector) HealAt(t time.Duration) {
	inj.k.At(t, func() { inj.Heal() })
}

// Partitioned reports whether a partition is currently installed. Unlike
// the mutating methods it is safe to call from any goroutine.
func (inj *Injector) Partitioned() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.partitioned
}

// DegradeLink sets the link PRR between a and b immediately (both
// directions).
func (inj *Injector) DegradeLink(a, b radio.NodeID, prr float64) {
	inj.m.SetLinkPRR(a, b, prr)
	inj.m.SetLinkPRR(b, a, prr)
	inj.rec.Emit(int32(a), trace.FaultLink, int64(b), 0, prr, 0)
}

// RestoreLink removes PRR overrides for the pair immediately.
func (inj *Injector) RestoreLink(a, b radio.NodeID) {
	inj.m.SetLinkPRR(a, b, -1)
	inj.m.SetLinkPRR(b, a, -1)
	inj.rec.Emit(int32(a), trace.FaultLink, int64(b), 0, -1, 0)
}

// DegradeLinkAt sets the directed link PRR at time t (both directions).
func (inj *Injector) DegradeLinkAt(t time.Duration, a, b radio.NodeID, prr float64) {
	inj.k.At(t, func() { inj.DegradeLink(a, b, prr) })
}

// RestoreLinkAt removes PRR overrides for the pair at time t.
func (inj *Injector) RestoreLinkAt(t time.Duration, a, b radio.NodeID) {
	inj.k.At(t, func() { inj.RestoreLink(a, b) })
}

// --- reliability accounting ---

// componentState tracks one component's failure history.
type componentState struct {
	up        bool
	since     time.Duration // start of the current state
	upTotal   time.Duration
	downTotal time.Duration
	failures  int
	repairs   int
}

// Ledger computes MTTF/MTTR/availability from failure and repair events.
type Ledger struct {
	start      time.Duration
	components map[string]*componentState
}

// NewLedger starts accounting at time start (components are presumed up).
func NewLedger(start time.Duration) *Ledger {
	return &Ledger{start: start, components: make(map[string]*componentState)}
}

func (l *Ledger) get(name string) *componentState {
	c, ok := l.components[name]
	if !ok {
		c = &componentState{up: true, since: l.start}
		l.components[name] = c
	}
	return c
}

// RecordFailure marks the component down at time t.
func (l *Ledger) RecordFailure(name string, t time.Duration) {
	c := l.get(name)
	if !c.up {
		return
	}
	c.upTotal += t - c.since
	c.up = false
	c.since = t
	c.failures++
}

// RecordRepair marks the component up at time t.
func (l *Ledger) RecordRepair(name string, t time.Duration) {
	c := l.get(name)
	if c.up {
		return
	}
	c.downTotal += t - c.since
	c.up = true
	c.since = t
	c.repairs++
}

// Stats summarizes one component as of time now.
type Stats struct {
	Failures     int
	Repairs      int
	MTTF         time.Duration // mean up time between failures
	MTTR         time.Duration // mean down time
	Availability float64       // up / (up + down)
}

// StatsOf returns the component's statistics as of now.
//
// Edge semantics (pinned by TestLedgerStatsEdgeSemantics):
//
//   - An unknown component is perfectly available (Availability 1, zero
//     MTTF/MTTR): the ledger only learns of components through events.
//   - A component that never failed reports MTTF = its total uptime — a
//     censored observation (the true MTTF is at least that), which keeps
//     fleet-wide MTTF averages finite.
//   - A component that failed but was never repaired reports MTTR = its
//     total downtime so far (again censored); a never-failed component
//     reports MTTR = 0, not "unknown".
func (l *Ledger) StatsOf(name string, now time.Duration) Stats {
	c, ok := l.components[name]
	if !ok {
		return Stats{Availability: 1}
	}
	up, down := c.upTotal, c.downTotal
	if c.up {
		up += now - c.since
	} else {
		down += now - c.since
	}
	s := Stats{Failures: c.failures, Repairs: c.repairs}
	if c.failures > 0 {
		s.MTTF = up / time.Duration(c.failures)
	} else {
		s.MTTF = up
	}
	if c.repairs > 0 {
		s.MTTR = down / time.Duration(c.repairs)
	} else if c.failures > 0 && !c.up {
		s.MTTR = down
	}
	if up+down > 0 {
		s.Availability = float64(up) / float64(up+down)
	} else {
		s.Availability = 1
	}
	return s
}

// Components returns all tracked component names, sorted.
func (l *Ledger) Components() []string {
	out := make([]string, 0, len(l.components))
	for n := range l.components {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SystemAvailability averages availability over all components, summed
// in Components order so the result is the same to the last bit on every
// call.
func (l *Ledger) SystemAvailability(now time.Duration) float64 {
	names := l.Components()
	if len(names) == 0 {
		return 1
	}
	var sum float64
	for _, name := range names {
		sum += l.StatsOf(name, now).Availability
	}
	return sum / float64(len(names))
}
