// Package scenario is the declarative scenario engine: deployments,
// workloads, and fault schedules expressed as data (a Spec), generated
// topologies with seeded determinism (TopoSpec), a cross-cutting
// invariant checker fed from the flight recorder (invariant.go), and a
// property-test harness that sweeps random specs and shrinks failures
// to minimal reproducer strings (quick.go). The paper's position is
// that an industrial deployment's correctness is an emergent,
// cross-layer property — so the unit under test here is a whole
// deployment run, not a protocol, and the assertions are invariants
// that must hold on every run regardless of topology, schedule, or
// seed.
//
// Specs compose on top of the existing layers rather than replacing
// them: topologies become core.Topology plans for the profile/stack
// builder, fault schedules become fault.ChurnConfig for the churn
// engine, and runs execute on the deterministic kernel — so one Spec +
// seed names exactly one run, replayable from its reproducer string
// (encode.go, `iiotsim -scenario`).
package scenario

import (
	"fmt"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/store"
)

// ClassSpec names one device class by MAC discipline. It is the
// data-only projection of core.Profile that the reproducer codec can
// round-trip; specs needing full profile control (custom routers,
// tenants, RNFD) use the Spec.Profiles expert seam instead.
type ClassSpec struct {
	// Kind is the MAC discipline: "csma", "lpl", or "rimac".
	Kind string
	// Wake is the LPL wake interval (ignored by other kinds; zero uses
	// the MAC layer's own default).
	Wake time.Duration
}

// macKind maps the class kind to the core MAC selector.
func (c ClassSpec) macKind() (core.MACKind, error) {
	switch c.Kind {
	case "", "csma":
		return core.MACCSMA, nil
	case "lpl":
		return core.MACLPL, nil
	case "rimac":
		return core.MACRIMAC, nil
	}
	return 0, fmt.Errorf("scenario: unknown class kind %q", c.Kind)
}

// WorkloadSpec schedules the application traffic of a run. Zero-valued
// fields disable their generator.
type WorkloadSpec struct {
	// ProbeEvery drives round-robin confirmable CoAP GETs from the
	// border router to the fleet (requires Spec.WithCoAP).
	ProbeEvery time.Duration
	// PushEvery has every non-root node push a raw reading to the root.
	PushEvery time.Duration
	// AggEpoch runs a continuous in-network aggregation query.
	AggEpoch time.Duration
	// HeartbeatEvery has every non-root node send an AEAD-sealed
	// heartbeat to the root — the traffic the replay-monotone invariant
	// observes across reboots.
	HeartbeatEvery time.Duration
	// IngestEvery has every non-root node push a telemetry reading to
	// the root, where it is batched into the sharded time-series store
	// (Spec.Store) — the gateway→storage fan-in the store-converges
	// invariant observes.
	IngestEvery time.Duration
}

// StoreSpec configures the data-storage tier behind the ingest
// workload: a partitioned, replicated time-series store at the root.
// It is only meaningful when WorkloadSpec.IngestEvery is set; defaults
// (2 shards × 3 replicas, AP) are applied then.
type StoreSpec struct {
	// Shards is the partition count P (default 2).
	Shards int
	// Replicas is the replication factor R per shard (default 3).
	Replicas int
	// Mode is the per-shard consistency policy: "ap" (CRDT +
	// anti-entropy, the default) or "cp" (quorum).
	Mode string
	// PartAt/PartHold schedule a storage-tier partition episode: PartAt
	// into the soak phase, the last replica of every shard is cut off
	// for PartHold, then healed (with a CP repair push). The episode
	// must complete within the soak so the store can reconverge before
	// the invariant check. Zero PartHold disables the episode.
	PartAt, PartHold time.Duration
}

// enabled reports whether the store tier runs (it exists to serve the
// ingest workload).
func (st StoreSpec) enabled(w WorkloadSpec) bool { return w.IngestEvery > 0 }

// NodeSel selects a node subset by rule, so a fault schedule stays a
// few bytes of data at any fleet size.
type NodeSel struct {
	// Kind is the selection rule: "" (empty selection), "odd" (IDs
	// 1,3,5,…; never the root), "even" (IDs 2,4,6,…; never the root),
	// "farhalf" (IDs n/2..n-1), or "list" (exactly IDs).
	Kind string
	// IDs is the explicit set for Kind "list".
	IDs []int
}

// Resolve expands the selection against an n-node fleet.
func (s NodeSel) Resolve(n int) []radio.NodeID {
	var out []radio.NodeID
	switch s.Kind {
	case "odd":
		for i := 1; i < n; i += 2 {
			out = append(out, radio.NodeID(i))
		}
	case "even":
		for i := 2; i < n; i += 2 {
			out = append(out, radio.NodeID(i))
		}
	case "farhalf":
		for i := n / 2; i < n; i++ {
			out = append(out, radio.NodeID(i))
		}
	case "list":
		for _, id := range s.IDs {
			out = append(out, radio.NodeID(id))
		}
	}
	return out
}

// validate checks the selection against an n-node fleet.
func (s NodeSel) validate(n int) error {
	switch s.Kind {
	case "", "odd", "even", "farhalf":
	case "list":
		if len(s.IDs) == 0 {
			return fmt.Errorf("scenario: list selector with no IDs")
		}
		for _, id := range s.IDs {
			if id < 1 || id >= n {
				return fmt.Errorf("scenario: selector ID %d out of range [1,%d)", id, n)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown selector kind %q", s.Kind)
	}
	return nil
}

// FaultSpec is the data form of a fault.ChurnConfig: crash/recover
// churn over a selection, one flapping link, one Gilbert–Elliott bursty
// link, and periodic partition storms. Zero-valued sections disable
// their generator, mirroring the churn engine's own convention.
type FaultSpec struct {
	// Churn selects the crash/recover candidates; MeanUp..MinDown are
	// the churn engine's hold parameters.
	Churn             NodeSel
	MeanUp, MinUp     time.Duration
	MeanDown, MinDown time.Duration

	// FlapLink flaps between full delivery and FlapPRR with exponential
	// holds of mean FlapEvery. The zero pair disables it.
	FlapLink  [2]int
	FlapEvery time.Duration
	FlapPRR   float64

	// GELink is modulated by a Gilbert–Elliott chain stepped every
	// GEStep with the given transition probabilities and bad-state PRR.
	GELink                           [2]int
	GEPGoodBad, GEPBadGood, GEBadPRR float64
	GEStep                           time.Duration

	// Partition storms: after exponential gaps of mean PartEvery, the
	// Part selection is cleaved off for PartHold, then healed.
	Part                NodeSel
	PartEvery, PartHold time.Duration
}

// enabled reports whether any fault generator is configured.
func (f FaultSpec) enabled() bool {
	return (f.Churn.Kind != "" && f.MeanUp > 0) ||
		(f.FlapEvery > 0 && f.FlapLink != [2]int{}) ||
		(f.GEStep > 0 && f.GELink != [2]int{}) ||
		(f.PartEvery > 0 && f.Part.Kind != "")
}

// ChurnConfig expands the spec into the churn engine's configuration
// for an n-node fleet. The expansion is pure data: the same spec and n
// always produce the same config, and therefore — with the engine's
// seeded generator — the same fault schedule.
func (f FaultSpec) ChurnConfig(n int) fault.ChurnConfig {
	cfg := fault.ChurnConfig{
		Nodes:  f.Churn.Resolve(n),
		MeanUp: f.MeanUp, MinUp: f.MinUp,
		MeanDown: f.MeanDown, MinDown: f.MinDown,
	}
	if f.FlapEvery > 0 && f.FlapLink != [2]int{} {
		cfg.FlapLinks = [][2]radio.NodeID{{radio.NodeID(f.FlapLink[0]), radio.NodeID(f.FlapLink[1])}}
		cfg.MeanFlap = f.FlapEvery
		cfg.FlapPRR = f.FlapPRR
	}
	if f.GEStep > 0 && f.GELink != [2]int{} {
		cfg.GELinks = []fault.GELink{{
			A: radio.NodeID(f.GELink[0]), B: radio.NodeID(f.GELink[1]),
			PGoodBad: f.GEPGoodBad, PBadGood: f.GEPBadGood, BadPRR: f.GEBadPRR,
		}}
		cfg.GEStep = f.GEStep
	}
	if f.PartEvery > 0 && f.Part.Kind != "" {
		cfg.MeanPartition = f.PartEvery
		cfg.PartitionHold = f.PartHold
		cfg.Groups = [][]radio.NodeID{f.Part.Resolve(n)}
	}
	return cfg
}

// validate checks the fault schedule against an n-node fleet.
func (f FaultSpec) validate(n int) error {
	if err := f.Churn.validate(n); err != nil {
		return err
	}
	if err := f.Part.validate(n); err != nil {
		return err
	}
	for _, d := range []time.Duration{
		f.MeanUp, f.MinUp, f.MeanDown, f.MinDown,
		f.FlapEvery, f.GEStep, f.PartEvery, f.PartHold,
	} {
		if d < 0 {
			return fmt.Errorf("scenario: negative fault duration")
		}
	}
	for _, p := range []float64{f.FlapPRR, f.GEPGoodBad, f.GEPBadGood, f.GEBadPRR} {
		if p < 0 || p > 1 || !finite(p) {
			return fmt.Errorf("scenario: fault probability %v out of [0,1]", p)
		}
	}
	for _, l := range [][2]int{f.FlapLink, f.GELink} {
		if l == [2]int{} {
			continue
		}
		if l[0] < 0 || l[0] >= n || l[1] < 0 || l[1] >= n || l[0] == l[1] {
			return fmt.Errorf("scenario: fault link %d-%d invalid for %d nodes", l[0], l[1], n)
		}
	}
	if f.Churn.Kind != "" && f.MeanUp > 0 && f.MeanDown == 0 && f.MinDown == 0 {
		return fmt.Errorf("scenario: churn with no recovery delay")
	}
	return nil
}

// Spec is one declarative scenario: a generated topology, the device
// classes deployed on it, the workload and fault schedules, and the
// run phase durations. Together with its Seed it names exactly one
// deterministic run.
type Spec struct {
	// Seed drives all run randomness (kernel, topology generation,
	// fault schedule derivation).
	Seed int64
	// Topo generates the node positions (and, for cluster topologies,
	// per-node role labels).
	Topo TopoSpec
	// Classes are the device classes. With role labels (cluster), class
	// 0 is the backbone and class 1 (or 0 if single) the leaves; without
	// labels, node i runs class i mod len(Classes). Empty means one
	// default CSMA class.
	Classes []ClassSpec
	// Profiles, when non-empty, bypasses Classes entirely: the listed
	// core.Profiles are used verbatim and topology labels must match
	// profile names. It is the expert seam for experiments needing full
	// profile control; it is not representable in a reproducer string.
	Profiles []core.Profile
	// WithCoAP attaches CoAP endpoints to every class.
	WithCoAP bool
	// Converge bounds the initial convergence wait; Soak is the
	// measured phase (faults active); Drain bounds the settling phase
	// after faults stop.
	Converge, Soak, Drain time.Duration
	// Workload and Faults schedule the run's traffic and fault load.
	Workload WorkloadSpec
	Faults   FaultSpec
	// Store configures the storage tier the ingest workload feeds.
	Store StoreSpec
	// TraceCapacity sizes the flight-recorder ring (0 = the process
	// default, negative = tracing disabled). Run raises a zero value to
	// a scenario default because the invariant checker reads the trace.
	TraceCapacity int
	// CheckEvery is the invariant snapshot period (0 = default 10 s).
	CheckEvery time.Duration
	// Factories override the nodes' MAC construction — the test seam
	// bug-injection harnesses use. Not representable in a reproducer
	// string.
	Factories core.Factories
}

// applyDefaults fills the phase and checker defaults.
func (s *Spec) applyDefaults() {
	s.Topo.applyDefaults()
	if len(s.Classes) == 0 && len(s.Profiles) == 0 {
		s.Classes = []ClassSpec{{Kind: "csma"}}
	}
	if s.Converge == 0 {
		s.Converge = 3 * time.Minute
	}
	if s.Soak == 0 {
		s.Soak = 2 * time.Minute
	}
	if s.Drain == 0 {
		s.Drain = time.Minute
	}
	if s.CheckEvery == 0 {
		s.CheckEvery = 10 * time.Second
	}
	if s.Store.enabled(s.Workload) {
		if s.Store.Shards == 0 {
			s.Store.Shards = 2
		}
		if s.Store.Replicas == 0 {
			s.Store.Replicas = 3
		}
		if s.Store.Mode == "" {
			s.Store.Mode = "ap"
		}
	}
}

// Validate reports the first structural error in the spec. Defaults are
// applied to a copy first, so a zero-filled section is never an error.
func (s Spec) Validate() error {
	s.applyDefaults()
	if err := s.Topo.validate(); err != nil {
		return err
	}
	n := s.Topo.Nodes()
	for _, c := range s.Classes {
		if _, err := c.macKind(); err != nil {
			return err
		}
		if c.Wake < 0 {
			return fmt.Errorf("scenario: negative class wake interval")
		}
	}
	for _, d := range []time.Duration{
		s.Converge, s.Soak, s.Drain, s.CheckEvery,
		s.Workload.ProbeEvery, s.Workload.PushEvery,
		s.Workload.AggEpoch, s.Workload.HeartbeatEvery,
		s.Workload.IngestEvery, s.Store.PartAt, s.Store.PartHold,
	} {
		if d < 0 {
			return fmt.Errorf("scenario: negative duration in spec")
		}
	}
	if s.Workload.ProbeEvery > 0 && !s.WithCoAP {
		return fmt.Errorf("scenario: probe workload requires WithCoAP")
	}
	if err := s.Store.validate(s.Workload, s.Soak); err != nil {
		return err
	}
	return s.Faults.validate(n)
}

// validate checks the store section against the workload and soak.
func (st StoreSpec) validate(w WorkloadSpec, soak time.Duration) error {
	if !st.enabled(w) {
		if st != (StoreSpec{}) {
			return fmt.Errorf("scenario: store section requires the ingest workload")
		}
		return nil
	}
	if st.Shards < 1 || st.Shards > 64 {
		return fmt.Errorf("scenario: store shards %d out of [1,64]", st.Shards)
	}
	if st.Replicas < 1 || st.Replicas > 7 {
		return fmt.Errorf("scenario: store replicas %d out of [1,7]", st.Replicas)
	}
	if _, err := store.ParseMode(st.Mode); err != nil {
		return err
	}
	if st.PartHold > 0 && st.PartAt+st.PartHold >= soak {
		return fmt.Errorf("scenario: store partition episode must end within the soak phase")
	}
	return nil
}
