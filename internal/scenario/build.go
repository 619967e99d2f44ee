package scenario

import (
	"fmt"

	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/trace"
)

// Built is a deployment constructed from a Spec, plus the fault
// machinery once armed. The spec held here has defaults applied.
type Built struct {
	Spec Spec
	D    *core.Deployment
	faults
}

// faults is the fault machinery of a built deployment, flat or sharded:
// all nil until ArmFaults.
type faults struct {
	Ledger *fault.Ledger
	Inj    *fault.Injector
	Churn  *fault.Churn
}

// arm creates the reliability ledger, fault injector, and churn engine
// at sched's current virtual time; faults are traced into rec (nil on
// the sharded engine, which has no recorder). No-op when the spec
// schedules no faults or they are already armed.
func (f *faults) arm(spec Spec, sched fault.Sched, ctl fault.MediumCtl, target fault.Target, rec *trace.Recorder) {
	if !spec.Faults.enabled() || f.Churn != nil {
		return
	}
	f.Ledger = fault.NewLedger(sched.Now())
	f.Inj = fault.NewInjector(sched, ctl, target, f.Ledger)
	f.Inj.SetRecorder(rec)
	f.Churn = fault.NewChurn(f.Inj, ChurnSeed(spec.Seed), spec.Faults.ChurnConfig(spec.Topo.Nodes()))
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
	stack := stackOf(&spec)
	return &Built{Spec: spec, D: core.NewStack(stack)}
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
// multi-kernel engine (DESIGN.md §9), plus the fault machinery once
// armed. Fault callbacks run on the shard group's control timeline —
// the barrier instants at which cross-stripe mutation is legal.
type BuiltSharded struct {
	Spec Spec
	D    *core.ShardedDeployment
	faults
}

// BuildSharded expands the spec like Build, but stripes the fleet over
// the given number of simulation kernels. The stripe count is a model
// parameter (it decides which frames cross a barrier); the worker count
// (D.G.SetWorkers) is pure execution policy. Tracing is not supported
// on the sharded engine, so specs carrying TraceCapacity panic in
// core.NewShardedStack.
func BuildSharded(spec Spec, stripes int) *BuiltSharded {
	stack := stackOf(&spec)
	return &BuiltSharded{Spec: spec, D: core.NewShardedStack(stack, stripes)}
}

// ArmFaults arms the spec's faults at the deployment's current virtual
// time. Call it after convergence (on the kernel goroutine contract of
// the injector) and before starting the soak; the churn engine itself
// still needs Churn.Start.
func (b *Built) ArmFaults() { b.arm(b.Spec, b.D.K, b.D.M, b.D, b.D.Trace) }

// ArmFaults is Built.ArmFaults on the sharded engine: ledger time and
// fault scheduling come from the shard group, and the injector's medium
// control fans to the owning stripe(s) through the deployment.
func (b *BuiltSharded) ArmFaults() { b.arm(b.Spec, b.D.G, b.D, b.D, nil) }
