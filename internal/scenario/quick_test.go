package scenario

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestQuickCleanFleetPasses(t *testing.T) {
	rep := Quick(QuickConfig{Triples: 8, Seed: 1})
	if rep.Failed() {
		t.Fatalf("clean stack produced failures:\n%s", rep.Log)
	}
	if rep.Passed != 8 {
		t.Errorf("passed = %d, want 8", rep.Passed)
	}
	if !strings.Contains(rep.Log, "summary: 8 triples, 8 passed, 0 failed") {
		t.Errorf("unexpected log summary:\n%s", rep.Log)
	}
}

// TestQuickProperty is the CI property gate: a fixed-seed sweep of
// random (topology, schedule, seed) triples over the whole stack. The
// default 50 triples ride in every `go test ./...`; the dedicated
// scenario-property CI job raises SCENARIO_QUICK_TRIPLES to 500+. The
// seed is fixed, so a failure is a real regression (and its log carries
// a shrunk reproducer for `iiotsim -scenario`), never flakiness.
func TestQuickProperty(t *testing.T) {
	triples := 50
	if s := os.Getenv("SCENARIO_QUICK_TRIPLES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCENARIO_QUICK_TRIPLES=%q", s)
		}
		triples = n
	}
	rep := Quick(QuickConfig{Triples: triples, Seed: 11})
	if rep.Failed() {
		t.Fatalf("property sweep failed:\n%s", rep.Log)
	}
	lines := strings.Split(strings.TrimSpace(rep.Log), "\n")
	summary := lines[len(lines)-1]
	t.Logf("%s", summary)
	// The sweep's digest covers every counter of every run, so pinning it
	// turns "the engine refactor moved nothing" from a manual diff into a
	// test. A PR that means to move runs (a generator draw, a protocol
	// default) re-pins it and says so; see the verify skill.
	if want, ok := quickDigests[triples]; ok && !strings.HasSuffix(summary, "digest="+want) {
		t.Errorf("sweep digest moved, want %s", want)
	}
}

// quickDigests pins Quick{Seed: 11}'s summary digest per sweep size: the
// tier-1 smoke and CI's scenario-property job.
var quickDigests = map[int]string{
	50:  "b0f4aef82fc58765",
	500: "c67ba8cd6db60ec7",
}

func TestQuickGenSpecsValidate(t *testing.T) {
	// Every spec the generator can draw must validate and encode: the
	// harness promises a replayable reproducer for anything it runs.
	for i := 0; i < 200; i++ {
		spec := genSpec(newQuickRng(99, i))
		if err := spec.Validate(); err != nil {
			t.Fatalf("triple %d: generated invalid spec: %v", i, err)
		}
		line := Format(spec)
		back, err := Parse(line)
		if err != nil {
			t.Fatalf("triple %d: reproducer does not parse: %v\n%s", i, err, line)
		}
		if Format(back) != line {
			t.Fatalf("triple %d: reproducer not stable:\n%s\n%s", i, line, Format(back))
		}
	}
}

// TestQuickCatchesPlantedBugAndShrinks is the harness's own acceptance
// test: plant the deaf-after-reboot MAC under every triple and require
// Quick to convict it via the rejoin invariant, then shrink the failing
// triple to a strictly simpler scenario that still fails.
func TestQuickCatchesPlantedBugAndShrinks(t *testing.T) {
	mut := func(s *Spec) {
		if s.Faults.Churn.Kind == "" {
			s.Faults.Churn = NodeSel{Kind: "odd"}
			s.Faults.MeanUp, s.Faults.MinUp = 25*time.Second, 20*time.Second
			s.Faults.MeanDown, s.Faults.MinDown = 6*time.Second, 5*time.Second
		}
		if s.Drain < 2*time.Minute {
			s.Drain = 2 * time.Minute
		}
		plantDeafMAC(s)
	}
	rep := Quick(QuickConfig{Triples: 4, Seed: 3, Mutate: mut})
	if !rep.Failed() {
		t.Fatalf("harness missed the planted bug:\n%s", rep.Log)
	}
	f := rep.Failures[0]
	gotRejoin := false
	for _, v := range f.ShrunkViolations {
		if v.Invariant == InvRejoin {
			gotRejoin = true
		}
	}
	if !gotRejoin {
		t.Errorf("shrunk reproducer lost the rejoin violation: %v", f.ShrunkViolations)
	}
	if f.ShrinkRuns == 0 {
		t.Error("shrinking never ran")
	}
	if !strings.Contains(rep.Log, "FAIL") || !strings.Contains(rep.Log, "shrunk") {
		t.Errorf("log missing failure narration:\n%s", rep.Log)
	}
}

func TestShrinkPrefersSimplerSpecs(t *testing.T) {
	// Shrinking a spec whose failure persists (simulated by a stub that
	// "fails" whenever churn is present) must strip every optional
	// section while keeping the load-bearing churn.
	spec := fullSpec()
	spec.Faults.FlapLink = [2]int{1, 2}
	spec.Faults.FlapEvery = 30 * time.Second
	spec.Faults.FlapPRR = 0.2
	plantDeafMAC(&spec)
	r := Run(spec, nil)
	if !r.Failed() {
		t.Fatal("planted bug did not fail")
	}
	shrunk, viol, runs := shrinkFailure(spec, r.Violations)
	if len(viol) == 0 || runs == 0 {
		t.Fatalf("shrink lost the failure (runs=%d)", runs)
	}
	if shrunk.Faults.Churn.Kind == "" {
		t.Error("shrink dropped the churn the bug needs")
	}
	if shrunk.Faults.FlapLink != [2]int{} {
		t.Error("shrink kept the irrelevant flapping link")
	}
	if shrunk.Workload.ProbeEvery != 0 || shrunk.Workload.AggEpoch != 0 {
		t.Error("shrink kept irrelevant workloads")
	}
	if shrunk.Topo.Nodes() >= spec.Topo.Nodes() {
		t.Errorf("shrink did not reduce the fleet: %d vs %d", shrunk.Topo.Nodes(), spec.Topo.Nodes())
	}
}
