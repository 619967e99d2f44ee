package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/fault"
	"iiotds/internal/radio"
	"iiotds/internal/scenario"
	"iiotds/internal/trace"
)

// render flattens a table to the exact bytes a user sees; byte equality
// of this string is the determinism contract under test.
func render(t *Table) string { return t.String() + "\n" + t.Markdown() }

// TestDeterminismSameSeedSameTable runs every registered experiment twice
// at Quick scale (each harness carries its own fixed seed) and asserts
// the rendered tables are byte-identical — the DESIGN.md §5 regression
// gate.
func TestDeterminismSameSeedSameTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			a := render(r.Run(Quick))
			b := render(r.Run(Quick))
			if a != b {
				t.Fatalf("two runs of %s differ:\n--- first ---\n%s\n--- second ---\n%s", r.ID, a, b)
			}
		})
	}
}

// TestParallelMatchesSequential proves the tentpole property: for every
// experiment, the table produced with the trial fan-out across all cores
// is byte-identical to the one produced by a single sequential worker.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	// Parallelism is a package global, so the two configurations must not
	// interleave; run every experiment sequentially at 1 worker first.
	seq := map[string]string{}
	stats := map[string]RunStats{}
	SetParallelism(1)
	for _, r := range All() {
		tab := r.Run(Quick)
		seq[r.ID] = render(tab)
		stats[r.ID] = tab.Stats
	}
	SetParallelism(0) // default: GOMAXPROCS
	defer SetParallelism(0)
	for _, r := range All() {
		tab := r.Run(Quick)
		if got := render(tab); got != seq[r.ID] {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				r.ID, seq[r.ID], got)
		}
		// The aggregated kernel stats are order-independent sums/maxes
		// (and the trace summary an order-independent merge), so they
		// must match too.
		if !reflect.DeepEqual(tab.Stats, stats[r.ID]) {
			t.Errorf("%s: parallel stats %+v differ from sequential %+v", r.ID, tab.Stats, stats[r.ID])
		}
	}
}

// TestTraceDeterminism turns the flight recorder on and asserts the
// strongest observability contract in ISSUE.md: for every experiment,
// the full JSONL event stream (every trial, in trial order) plus the
// rendered table is byte-identical between a single-worker run and a
// fully parallel run — and therefore also between repeated runs.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	old := trace.DefaultCapacity()
	trace.SetDefaultCapacity(1 << 15)
	defer trace.SetDefaultCapacity(old)
	defer SetTraceSink(nil)

	// capture renders each experiment's complete trace: a JSONL dump per
	// trial (drained by the sink in trial-index order) plus the table.
	capture := func() map[string]string {
		out := map[string]string{}
		for _, r := range All() {
			var buf bytes.Buffer
			SetTraceSink(func(i int, rec *trace.Recorder) {
				fmt.Fprintf(&buf, "# trial %d\n", i)
				if err := rec.WriteJSONL(&buf, trace.All()); err != nil {
					t.Fatalf("%s: WriteJSONL: %v", r.ID, err)
				}
			})
			tab := r.Run(Quick)
			out[r.ID] = buf.String() + "\n" + render(tab)
		}
		return out
	}

	SetParallelism(1)
	seq := capture()
	SetParallelism(0) // default: GOMAXPROCS
	defer SetParallelism(0)
	par := capture()

	for _, r := range All() {
		if seq[r.ID] != par[r.ID] {
			a, b := seq[r.ID], par[r.ID]
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			lo := max(0, i-200)
			t.Errorf("%s: parallel trace differs from sequential at byte %d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				r.ID, i, a[lo:min(len(a), i+200)], b[lo:min(len(b), i+200)])
		}
	}
}

// TestChurnDeterminism pins the churn engine's reproducibility contract
// at the experiment level: the same (built-in) seeds produce
// byte-identical E14 tables whether the two soak trials run on one
// worker or fan out across eight, and a different churn seed produces a
// genuinely different fault schedule (same infrastructure, different
// draws).
func TestChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	r, ok := ByID("E14")
	if !ok {
		t.Fatal("E14 not registered")
	}
	SetParallelism(1)
	seq := render(r.Run(Quick))
	SetParallelism(8)
	par := render(r.Run(Quick))
	SetParallelism(0)
	defer SetParallelism(0)
	if seq != par {
		t.Fatalf("E14 at -parallel 8 differs from -parallel 1:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}

	// Different seeds ⇒ different schedules: drive a small deployment
	// with two churn engines that differ only in seed and compare the
	// crash timelines from the fault-layer trace events.
	schedule := func(seed int64) []string {
		d := core.NewStack(core.Stack{
			Seed:          42,
			Profiles:      []core.Profile{{Name: core.DefaultProfile}},
			Topology:      core.Uniform(core.DefaultProfile, radio.GridTopology(9, 15)),
			TraceCapacity: 1 << 14,
		})
		d.RunUntilConverged(3 * time.Minute)
		inj := fault.NewInjector(d.K, d.M, d, nil)
		inj.SetRecorder(d.Trace)
		churn := fault.NewChurn(inj, seed, fault.ChurnConfig{
			Nodes:  []radio.NodeID{1, 3, 5, 7},
			MeanUp: 20 * time.Second, MinUp: 10 * time.Second,
			MeanDown: 5 * time.Second, MinDown: 2 * time.Second,
		})
		churn.Start()
		d.K.RunFor(4 * time.Minute)
		churn.Stop()
		var events []string
		for _, ev := range d.Trace.Events() {
			if ev.Type == trace.FaultCrash || ev.Type == trace.FaultRecover {
				events = append(events, fmt.Sprintf("%d %s %d", ev.At, ev.Type, ev.Node))
			}
		}
		return events
	}
	a, b := schedule(1), schedule(2)
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("no churn events recorded: %d vs %d", len(a), len(b))
	}
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 produced identical %d-event schedules", len(a))
	}
	if again := schedule(1); !reflect.DeepEqual(a, again) {
		t.Fatalf("seed 1 replay produced a different schedule")
	}
}

// TestScenarioQuickDeterminism pins the property harness to the same
// parallelism contract as the experiment tables: a fixed-seed
// scenario.Quick sweep produces a byte-identical report log (including
// the FNV digest over every trial's full Result) on one worker and on
// eight. The harness fans triples across the same trial runner the
// experiments use, so this is the end-to-end proof that a CI property
// failure replays identically on a laptop at any -parallel.
func TestScenarioQuickDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	cfg := scenario.QuickConfig{Triples: 12, Seed: 5}
	SetParallelism(1)
	seq := scenario.Quick(cfg)
	SetParallelism(8)
	par := scenario.Quick(cfg)
	SetParallelism(0)
	defer SetParallelism(0)
	if seq.Log != par.Log {
		t.Fatalf("scenario.Quick log at -parallel 8 differs from -parallel 1:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.Log, par.Log)
	}
	if seq.Failed() {
		t.Fatalf("clean stack failed the property sweep:\n%s", seq.Log)
	}
}

// TestShardWorkerInvariance is the sharded-engine analogue of
// TestParallelMatchesSequential: E15's table must be byte-identical
// whether its eight stripes execute on one OS thread or four — worker
// count is execution policy, never model (the CI shards-1-vs-4 gate).
// The brute-force fan-out must also reproduce the table exactly: kept
// link lists are an optimization, not a model change.
func TestShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	r, ok := ByID("E15")
	if !ok {
		t.Fatal("E15 not registered")
	}
	SetShardWorkers(1)
	seq := render(r.Run(Quick))
	SetShardWorkers(4)
	par := render(r.Run(Quick))
	SetShardWorkers(0)
	defer SetShardWorkers(0)
	if seq != par {
		t.Fatalf("E15 at 4 shard workers differs from 1:\n--- 1 ---\n%s\n--- 4 ---\n%s", seq, par)
	}
	e15BruteForce = true
	brute := render(r.Run(Quick))
	e15BruteForce = false
	if brute != seq {
		t.Fatalf("E15 with brute-force fan-out differs from indexed:\n--- indexed ---\n%s\n--- brute ---\n%s", seq, brute)
	}
}

// TestStatsPopulated checks that the kernel-backed experiments actually
// report event counters through the runner.
func TestStatsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	withKernels := map[string]bool{
		"E2": true, "E3": true, "E4": true, "E5": true, "E6": true,
		"E9": true, "E10": true, "E11": true, "E13": true, "E14": true,
		"E15": true, "E16": true, "F1": true,
	}
	for _, r := range All() {
		tab := r.Run(Quick)
		if tab.Stats.Trials == 0 {
			t.Errorf("%s: no trials reported", r.ID)
		}
		if withKernels[r.ID] && tab.Stats.Events.Fired == 0 {
			t.Errorf("%s: expected kernel events, stats = %+v", r.ID, tab.Stats)
		}
	}
}
