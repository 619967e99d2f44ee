package scenario

import (
	"fmt"

	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
)

// built is what a build is on either engine: the spec (defaults
// applied), the fleet it expanded into, and the fault machinery once
// armed. Built and BuiltSharded add the typed deployment.
type built struct {
	Spec  Spec
	fleet *core.Fleet

	// All nil until ArmFaults.
	Ledger *fault.Ledger
	Inj    *fault.Injector
	Churn  *fault.Churn
}

// Built is a deployment constructed from a Spec on one kernel.
type Built struct {
	built
	D *core.Deployment
}

// ArmFaults creates the reliability ledger, fault injector and churn
// engine at the fleet's current virtual time, on its Sched and Ctl;
// faults are traced into its recorder, if it has one. Call it after
// convergence and before the soak; the churn engine still needs
// Churn.Start. No-op when the spec schedules no faults or they are
// already armed.
func (b *built) ArmFaults() {
	spec, f := b.Spec, b.fleet
	if !spec.Faults.enabled() || b.Churn != nil {
		return
	}
	b.Ledger = fault.NewLedger(f.Now())
	b.Inj = fault.NewInjector(f.Sched(), f.Ctl(), f, b.Ledger)
	b.Inj.SetRecorder(f.Recorder())
	b.Churn = fault.NewChurn(b.Inj, ChurnSeed(spec.Seed), spec.Faults.ChurnConfig(spec.Topo.Nodes()))
}

// ChurnSeed derives the churn engine's generator seed from the scenario
// seed. The derivation is part of the reproducer contract: E14 pinned
// it before the scenario layer existed, and a replayed spec must drive
// the exact same fault schedule.
func ChurnSeed(seed int64) int64 { return seed*7919 + 13 }

// Build expands the spec into a running deployment via the core
// profile/stack builder. Like core.NewStack it panics on structural
// errors (Validate catches them first with a useful message); use
// Validate for error-returning checks, e.g. on parsed input.
//
// Build only constructs — it does not converge, start workloads, or arm
// faults — so experiment wrappers can keep their own measurement code
// on an identical deployment. Faults arm separately (ArmFaults) because
// the reliability ledger must start at convergence, not construction:
// availability is measured over the operational phase.
func Build(spec Spec) *Built {
	d := core.NewStack(stackOf(&spec))
	return &Built{built{Spec: spec, fleet: &d.Fleet}, d}
}

// stackOf canonicalizes the spec in place and expands it into the core
// stack description — the shared front half of Build and BuildSharded.
func stackOf(spec *Spec) core.Stack {
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	profiles, topo := expand(*spec)
	return core.Stack{
		Seed:          spec.Seed,
		Profiles:      profiles,
		Topology:      topo,
		TraceCapacity: spec.TraceCapacity,
		Factories:     spec.Factories,
	}
}

// expand generates the canonical spec's topology and binds every node
// to a profile.
func expand(spec Spec) ([]core.Profile, core.Topology) {
	positions := spec.Topo.Generate(spec.Seed)
	labels := spec.Topo.Labels()
	if len(spec.Profiles) > 0 {
		topo := make(core.Topology, len(positions))
		for i, pos := range positions {
			name := spec.Profiles[0].Name
			if labels != nil {
				name = labels[i]
			}
			topo[i] = core.NodeSpec{Pos: pos, Profile: name}
		}
		return spec.Profiles, topo
	}
	return classProfiles(spec, positions, labels)
}

// classProfiles expands the data-only Classes into core profiles and a
// binding plan. With role labels, class 0 is the backbone and class 1
// (or 0) the leaves — named after the labels so cluster topologies
// validate. Without labels, node i runs class i mod k under profiles
// named c0..c(k-1).
func classProfiles(spec Spec, positions radio.Topology, labels []string) ([]core.Profile, core.Topology) {
	mk := func(name string, c ClassSpec) core.Profile {
		kind, _ := c.macKind() // validated by Build
		p := core.Profile{Name: name, MAC: kind, WithCoAP: spec.WithCoAP}
		p.LPL.WakeInterval = c.Wake
		return p
	}
	topo := make(core.Topology, len(positions))
	if labels != nil {
		leafClass := spec.Classes[min(1, len(spec.Classes)-1)]
		profiles := []core.Profile{
			mk("backbone", spec.Classes[0]),
			mk("leaf", leafClass),
		}
		for i := range topo {
			topo[i] = core.NodeSpec{Pos: positions[i], Profile: labels[i]}
		}
		return profiles, topo
	}
	profiles := make([]core.Profile, len(spec.Classes))
	for i, c := range spec.Classes {
		profiles[i] = mk(fmt.Sprintf("c%d", i), c)
	}
	for i := range topo {
		topo[i] = core.NodeSpec{
			Pos:     positions[i],
			Profile: profiles[i%len(profiles)].Name,
		}
	}
	return profiles, topo
}

// BuiltSharded is a deployment constructed from a Spec onto the sharded
// multi-kernel engine (DESIGN.md §9).
type BuiltSharded struct {
	built
	D *core.ShardedDeployment
}

// BuildSharded expands the spec like Build, but stripes the fleet over
// the given number of simulation kernels. The stripe count is a model
// parameter (it decides which frames cross a barrier); the worker count
// (D.G.SetWorkers) is pure execution policy. Tracing is not supported
// on the sharded engine, so specs carrying TraceCapacity panic in
// core.NewShardedStack.
func BuildSharded(spec Spec, stripes int) *BuiltSharded {
	sd := core.NewShardedStack(stackOf(&spec), stripes)
	return &BuiltSharded{built{Spec: spec, fleet: &sd.Fleet}, sd}
}
