package exp

import "testing"

// TestE16CAPDifferential pins E16's shape: every row recovers after the
// heal, AP rows ack every batch, and CP rows lose writes for the span
// of the coordinator partition — the availability split the experiment
// exists to demonstrate. It reads the shared matrix's first-leg table,
// so E16 runs no more often than any other experiment.
func TestE16CAPDifferential(t *testing.T) {
	tab := matrixFor(t, byID(t, "E16")).tabs[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 rows (2 modes × {1, sharded}), got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		mode, failed, recovered := row[0], row[3], row[5]
		if recovered != "true" {
			t.Errorf("%s %s: did not reconverge after heal", mode, row[1])
		}
		switch mode {
		case "AP":
			if failed != "0" {
				t.Errorf("AP %s: %s batches failed; AP ingest must stay available under partition", row[1], failed)
			}
		case "CP":
			if failed == "0" {
				t.Errorf("CP %s: no batches failed; the coordinator partition never bit", row[1])
			}
		default:
			t.Errorf("unknown mode cell %q", mode)
		}
	}
}
