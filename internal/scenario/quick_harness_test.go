package scenario

// The property harness: Quick draws random specs, runs them through Run
// and shrinks each failure to a one-line reproducer. Only tests sweep.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"time"

	"iiotds/internal/trial"
)

// QuickConfig parameterizes the property harness. The zero value is a
// sensible smoke run (50 triples).
type QuickConfig struct {
	// Triples is how many random (topology, schedule, seed) triples to
	// run (default 50).
	Triples int
	// Seed is the master seed; every triple derives its own generator
	// from it, so a (Seed, index) pair names one spec regardless of how
	// many triples the run sweeps.
	Seed int64
	// Mutate, when set, is applied to every generated spec before it
	// runs — the seam bug-injection tests use to plant a defect (e.g. a
	// faulty MAC factory) under every triple.
	Mutate func(*Spec)
}

// The generator's envelope and the shrinker's budget.
const (
	quickMaxNodes      = 20          // cap on generated fleet sizes
	quickMaxSoak       = time.Minute // cap on the generated soak phase
	quickMaxShrinkRuns = 24          // candidate runs shrinking may spend per failure
)

// Failure is one failed triple together with its shrunken reproducer.
type Failure struct {
	// Index is the triple's position in the sweep.
	Index int
	// Repro is the original spec's reproducer string (empty when the
	// spec is not encodable, e.g. under a Factories mutation).
	Repro string
	// Violations are the original run's invariant breaches.
	Violations []Violation
	// Shrunk is the minimal reproducer shrinking reached; its run still
	// breaches at least one of the original invariants.
	Shrunk string
	// ShrunkViolations are the minimal run's breaches.
	ShrunkViolations []Violation
	// ShrinkRuns is how many candidate runs shrinking spent.
	ShrinkRuns int
}

// Report summarizes a Quick sweep. Log is built strictly in triple-index
// order from deterministic runs, so it is byte-identical at any
// parallelism level — the determinism regression compares it across
// worker counts.
type Report struct {
	Triples      int
	Passed       int
	NotConverged int
	Failures     []Failure
	// Log is the human-readable transcript: one block per failure plus
	// a summary line with an FNV-64a digest over every result.
	Log string
}

// Failed reports whether any triple breached an invariant.
func (r Report) Failed() bool { return len(r.Failures) > 0 }

// quickMix derives the per-triple generator seed from the master seed.
// SplitMix64-style so adjacent indices land far apart.
func quickMix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// newQuickRng is the per-triple generator: (master seed, index) names
// one spec.
func newQuickRng(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(quickMix(seed, i)))
}

// Quick sweeps Triples random scenario specs through Run, shrinking each
// failure to a minimal reproducer. Triples run in parallel via the trial
// runner; shrinking is sequential and deterministic.
func Quick(cfg QuickConfig) Report {
	if cfg.Triples <= 0 {
		cfg.Triples = 50
	}

	specs := make([]Spec, cfg.Triples)
	for i := range specs {
		specs[i] = genSpec(newQuickRng(cfg.Seed, i))
		if cfg.Mutate != nil {
			cfg.Mutate(&specs[i])
		}
	}

	results, _ := trial.RunTrials(cfg.Triples, func(t *trial.Trial) Result {
		return Run(specs[t.Index], t)
	})

	rep := Report{Triples: cfg.Triples}
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario.Quick seed=%d triples=%d\n", cfg.Seed, cfg.Triples)
	h := fnv.New64a()
	for i, r := range results {
		digestResult(h, r)
		if !r.Converged {
			rep.NotConverged++
		}
		if !r.Failed() {
			continue
		}
		f := Failure{Index: i, Repro: r.Repro, Violations: r.Violations}
		shrunk, sviol, runs := shrinkFailure(specs[i], r.Violations)
		f.Shrunk = reproOf(shrunk)
		f.ShrunkViolations = sviol
		f.ShrinkRuns = runs
		rep.Failures = append(rep.Failures, f)

		fmt.Fprintf(&sb, "triple %03d FAIL repro=%s\n", i, reproOf(specs[i]))
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "  %s\n", v)
		}
		fmt.Fprintf(&sb, "triple %03d shrunk (runs=%d) repro=%s\n", i, runs, f.Shrunk)
		for _, v := range sviol {
			fmt.Fprintf(&sb, "  %s\n", v)
		}
	}
	rep.Passed = cfg.Triples - len(rep.Failures)
	fmt.Fprintf(&sb, "summary: %d triples, %d passed, %d failed, %d not-converged, digest=%016x\n",
		rep.Triples, rep.Passed, len(rep.Failures), rep.NotConverged, h.Sum64())
	rep.Log = sb.String()
	return rep
}

// digestResult folds one run's observable outcome into the report digest;
// any divergence between two sweeps of the same config shows up here.
func digestResult(w io.Writer, r Result) {
	fmt.Fprintf(w, "%s|%v|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%v\n",
		r.Repro, r.Converged, r.ConvergeIn,
		r.Crashes, r.Recoveries,
		r.ProbeOK, r.ProbeFail, r.Pushes, r.PushDelivered,
		r.AggEpochs, r.Heartbeats, r.HeartbeatOK,
		r.IngestSent, r.IngestDelivered, r.IngestAcked, r.IngestFailed, r.StoreConverged)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%s\n", v)
	}
}

// reproOf renders a spec for logs: the reproducer string when encodable,
// a stable placeholder otherwise.
func reproOf(s Spec) string {
	s.applyDefaults()
	if s.Encodable() {
		return Format(s)
	}
	return fmt.Sprintf("<non-encodable seed=%d topo=%s nodes=%d>", s.Seed, s.Topo.Kind, s.Topo.Nodes())
}

// genSpec draws one random scenario. Generated specs stay inside the
// envelope where convergence and post-churn repair are expected to
// succeed (reliable grid spacing, bounded fleet, recovery delays short
// relative to the drain phase), so any violation indicates a genuine
// defect rather than an under-provisioned schedule.
func genSpec(rng *rand.Rand) Spec {
	var s Spec
	s.Seed = rng.Int63()

	switch rng.Intn(4) {
	case 0:
		s.Topo = TopoSpec{Kind: TopoGrid, N: 5 + rng.Intn(quickMaxNodes-4)}
	case 1:
		// Deep chains converge slowly; keep pipelines short.
		s.Topo = TopoSpec{Kind: TopoPipeline, N: 3 + rng.Intn(6)}
	case 2:
		s.Topo = TopoSpec{Kind: TopoCluster, Heads: 1 + rng.Intn(3), Members: 1 + rng.Intn(3)}
	default:
		s.Topo = TopoSpec{Kind: TopoRGG, N: 5 + rng.Intn(quickMaxNodes-4)}
	}
	n := s.Topo.Nodes()

	// Class 0 is always CSMA so the root/backbone stays mains-powered;
	// half the fleets add a duty-cycled leaf class.
	s.Classes = []ClassSpec{{Kind: "csma"}}
	if rng.Intn(2) == 0 {
		s.Classes = append(s.Classes,
			ClassSpec{Kind: "lpl", Wake: time.Duration(1+rng.Intn(2)) * 250 * time.Millisecond})
	}

	s.WithCoAP = rng.Intn(2) == 0
	if s.WithCoAP && rng.Intn(2) == 0 {
		s.Workload.ProbeEvery = time.Duration(5+rng.Intn(6)) * time.Second
	}
	if rng.Intn(10) < 7 {
		s.Workload.PushEvery = time.Duration(4+rng.Intn(9)) * time.Second
	}
	if rng.Intn(10) < 3 {
		s.Workload.AggEpoch = time.Duration(10+rng.Intn(11)) * time.Second
	}
	if rng.Intn(2) == 0 {
		s.Workload.HeartbeatEvery = time.Duration(5+rng.Intn(11)) * time.Second
	}

	churny := false
	if rng.Intn(10) < 6 {
		if rng.Intn(2) == 0 {
			s.Faults.Churn = NodeSel{Kind: []string{"odd", "even", "farhalf"}[rng.Intn(3)]}
			s.Faults.MinUp = time.Duration(20+rng.Intn(11)) * time.Second
			s.Faults.MeanUp = s.Faults.MinUp + time.Duration(rng.Intn(11))*time.Second
			s.Faults.MinDown = 5 * time.Second
			s.Faults.MeanDown = time.Duration(5+rng.Intn(6)) * time.Second
			churny = true
		}
		if rng.Intn(10) < 3 {
			a, b := pickLink(rng, n)
			s.Faults.FlapLink = [2]int{a, b}
			s.Faults.FlapEvery = time.Duration(20+rng.Intn(41)) * time.Second
			s.Faults.FlapPRR = float64(rng.Intn(6)) / 10
		}
		if rng.Intn(4) == 0 {
			a, b := pickLink(rng, n)
			s.Faults.GELink = [2]int{a, b}
			s.Faults.GEPGoodBad = float64(1+rng.Intn(4)) * 0.05
			s.Faults.GEPBadGood = 0.2 + float64(rng.Intn(4))*0.1
			s.Faults.GEBadPRR = float64(rng.Intn(6)) / 10
			s.Faults.GEStep = 5 * time.Second
		}
		if rng.Intn(5) == 0 {
			s.Faults.Part = NodeSel{Kind: "farhalf"}
			s.Faults.PartEvery = time.Duration(60+rng.Intn(61)) * time.Second
			s.Faults.PartHold = time.Duration(5+rng.Intn(6)) * time.Second
			churny = true
		}
	}

	s.Soak = time.Duration(30+rng.Intn(int(quickMaxSoak/time.Second)-29)) * time.Second
	if churny {
		// Leave the repair machinery generous headroom after faults stop.
		s.Drain = 2 * time.Minute
	} else {
		s.Drain = 30 * time.Second
	}

	// The ingest workload and its store are drawn last, so every field
	// above is what the triple had before they joined the sweep. The
	// partition episode ends by 25 s, inside the shortest (30 s) soak.
	if rng.Intn(10) < 3 {
		s.Workload.IngestEvery = time.Duration(4+rng.Intn(9)) * time.Second
		s.Store = StoreSpec{
			Mode:     []string{"ap", "cp"}[rng.Intn(2)],
			Shards:   1 + rng.Intn(3),
			Replicas: 3,
		}
		if rng.Intn(2) == 0 {
			s.Store.PartAt = time.Duration(5+rng.Intn(6)) * time.Second
			s.Store.PartHold = time.Duration(5+rng.Intn(11)) * time.Second
		}
	}
	return s
}

// pickLink draws a random distinct node pair.
func pickLink(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// shrinkSteps are the simplification passes, ordered so schedule noise
// (partitions, bursty links) is removed before the load-bearing parts
// (the churn and the fleet itself) are attacked.
var shrinkSteps = []struct {
	name  string
	apply func(*Spec) bool // false = no-op on this spec
}{
	{"drop-partition", func(s *Spec) bool {
		if s.Faults.Part.Kind == "" && s.Faults.PartEvery == 0 {
			return false
		}
		s.Faults.Part, s.Faults.PartEvery, s.Faults.PartHold = NodeSel{}, 0, 0
		return true
	}},
	{"drop-ge", func(s *Spec) bool {
		if s.Faults.GELink == [2]int{} {
			return false
		}
		s.Faults.GELink = [2]int{}
		s.Faults.GEPGoodBad, s.Faults.GEPBadGood, s.Faults.GEBadPRR = 0, 0, 0
		s.Faults.GEStep = 0
		return true
	}},
	{"drop-flap", func(s *Spec) bool {
		if s.Faults.FlapLink == [2]int{} {
			return false
		}
		s.Faults.FlapLink, s.Faults.FlapEvery, s.Faults.FlapPRR = [2]int{}, 0, 0
		return true
	}},
	{"drop-agg", func(s *Spec) bool {
		if s.Workload.AggEpoch == 0 {
			return false
		}
		s.Workload.AggEpoch = 0
		return true
	}},
	{"drop-ingest", func(s *Spec) bool {
		if s.Workload.IngestEvery == 0 {
			return false
		}
		s.Workload.IngestEvery = 0
		s.Store = StoreSpec{}
		return true
	}},
	{"drop-probe", func(s *Spec) bool {
		if s.Workload.ProbeEvery == 0 {
			return false
		}
		s.Workload.ProbeEvery = 0
		return true
	}},
	{"drop-push", func(s *Spec) bool {
		if s.Workload.PushEvery == 0 {
			return false
		}
		s.Workload.PushEvery = 0
		return true
	}},
	{"drop-heartbeat", func(s *Spec) bool {
		if s.Workload.HeartbeatEvery == 0 {
			return false
		}
		s.Workload.HeartbeatEvery = 0
		return true
	}},
	{"drop-churn", func(s *Spec) bool {
		if s.Faults.Churn.Kind == "" {
			return false
		}
		s.Faults.Churn = NodeSel{}
		s.Faults.MeanUp, s.Faults.MinUp, s.Faults.MeanDown, s.Faults.MinDown = 0, 0, 0, 0
		return true
	}},
	{"halve-soak", func(s *Spec) bool {
		if s.Soak <= 15*time.Second {
			return false
		}
		s.Soak = (s.Soak / 2).Round(time.Second)
		return true
	}},
	{"halve-nodes", func(s *Spec) bool {
		if s.Topo.Kind == TopoCluster {
			changed := false
			if s.Topo.Heads > 1 {
				s.Topo.Heads = (s.Topo.Heads + 1) / 2
				changed = true
			}
			if s.Topo.Members > 1 {
				s.Topo.Members = (s.Topo.Members + 1) / 2
				changed = true
			}
			return changed
		}
		if s.Topo.N <= 4 {
			return false
		}
		s.Topo.N = (s.Topo.N + 1) / 2
		return true
	}},
	{"single-class", func(s *Spec) bool {
		if len(s.Classes) <= 1 {
			return false
		}
		s.Classes = s.Classes[:1]
		return true
	}},
}

// shrinkFailure greedily simplifies a failing spec: a candidate is
// accepted iff it still validates and its run breaches at least one of
// the invariants the current reproducer breaches (so shrinking cannot
// wander onto an unrelated failure). Candidates that would leave fault
// links or selector IDs dangling after a node cut simply fail Validate
// and are skipped.
func shrinkFailure(spec Spec, viol []Violation) (Spec, []Violation, int) {
	cur, curViol := spec, viol
	runs := 0
	for progress := true; progress && runs < quickMaxShrinkRuns; {
		progress = false
		for _, step := range shrinkSteps {
			if runs >= quickMaxShrinkRuns {
				break
			}
			next := cur
			if !step.apply(&next) {
				continue
			}
			if next.Validate() != nil {
				continue
			}
			runs++
			r := Run(next, nil)
			if overlaps(r.Violations, curViol) {
				cur, curViol = next, r.Violations
				progress = true
			}
		}
	}
	return cur, curViol, runs
}

// overlaps reports whether a breaches any invariant that b breaches.
func overlaps(a, b []Violation) bool {
	names := make(map[string]bool, len(b))
	for _, v := range b {
		names[v.Invariant] = true
	}
	for _, v := range a {
		if names[v.Invariant] {
			return true
		}
	}
	return false
}
