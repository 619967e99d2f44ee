// Package exp contains the experiment harnesses that operationalize the
// paper's claims (DESIGN.md §3). Each experiment builds its workload on
// the emulation substrate, runs it, and returns a Table whose rows are
// the "figures" this reproduction reports; EXPERIMENTS.md records the
// claim-vs-measured comparison.
//
// Every harness accepts a Scale so the same code serves the full
// reproduction (cmd/iiotbench) and the quick benchmark suite
// (bench_test.go).
package exp

import (
	"fmt"
	"strings"

	"iiotds/internal/trial"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick runs in seconds — used by testing.B and smoke tests.
	Quick Scale = iota
	// Full runs the paper-scale parameter sweeps.
	Full
)

// Table is one experiment's result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"` // the paper statement under test (section cited)
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Finding is the measured one-line verdict on the claim's shape.
	Finding string `json:"finding"`
	// Stats aggregates the kernel counters of the trials behind this
	// table (events scheduled/fired/canceled, pool reuse, max heap
	// depth). It is reported by iiotbench -json but is not part of the
	// rendered table, so String()/Markdown() output stays byte-identical
	// across runner configurations.
	Stats trial.RunStats `json:"stats"`
	// Notes carries side measurements that are real results but not
	// deterministic — wall-clock throughput, engine configuration. Like
	// Stats, Notes is reported by iiotbench -json only and never rendered
	// by String()/Markdown(), so table bytes stay machine-independent.
	Notes map[string]string `json:"notes,omitempty"`
}

// Note records a key/value side measurement (see Notes).
func (t *Table) Note(key, value string) {
	if t.Notes == nil {
		t.Notes = make(map[string]string)
	}
	t.Notes[key] = value
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("exp: row has %d cells, table %s has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table for terminal output.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&sb, "  %-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintf(&sb, "finding: %s\n", t.Finding)
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown (for
// EXPERIMENTS.md regeneration).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "*Claim:* %s\n\n", t.Claim)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	fmt.Fprintf(&sb, "\n*Measured:* %s\n", t.Finding)
	return sb.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID  string
	Run func(s Scale) *Table
}

// All returns every experiment in report order.
func All() []Runner {
	return []Runner{
		{"E1", E1Interop},
		{"E2", E2SizeScalability},
		{"E3", E3DutyCycleLatency},
		{"E4", E4Funneling},
		{"E5", E5RNFD},
		{"E6", E6Coexistence},
		{"E7", E7Redundancy},
		{"E8", E8HVAC},
		{"E9", E9Partitions},
		{"E10", E10SelfHealing},
		{"E11", E11Security},
		{"E13", E13MixedFleet},
		{"E14", E14ChurnSoak},
		{"E15", E15CityScale},
		{"E16", E16StoreIngest},
		{"F1", F1ThreeTier},
	}
}

// ByID returns the experiment with the given ID (case-insensitive) and
// whether it exists.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func di(v int) string      { return fmt.Sprintf("%d", v) }
