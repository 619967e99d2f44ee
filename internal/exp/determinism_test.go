package exp

import (
	"testing"

	"iiotds/internal/scenario"
	"iiotds/internal/trial"
)

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
	trial.SetParallelism(1)
	seq := scenario.Quick(cfg)
	trial.SetParallelism(8)
	par := scenario.Quick(cfg)
	trial.SetParallelism(0)
	defer trial.SetParallelism(0)
	if seq.Log != par.Log {
		t.Fatalf("scenario.Quick log at -parallel 8 differs from -parallel 1:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.Log, par.Log)
	}
	if seq.Failed() {
		t.Fatalf("clean stack failed the property sweep:\n%s", seq.Log)
	}
}
