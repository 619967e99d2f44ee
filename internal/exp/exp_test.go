package exp

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iiotds/internal/trace"
	"iiotds/internal/trial"
)

// leg is one configuration every experiment runs under. The runner's
// parallelism, the Go scheduler's thread count and the flight recorder
// are execution policy: none of them may move a table byte.
type leg struct {
	parallel   int
	gomaxprocs int // 0 leaves the process setting alone
	traced     bool
}

// legs are the matrix: untraced at parallelism 1 and 8, then traced at
// 1 and 8. The untraced pair also runs at GOMAXPROCS 1 and 4, which
// holds E15's stripe workers at one and four.
var legs = []leg{{1, 1, false}, {8, 4, false}, {1, 0, true}, {8, 0, true}}

// withKernels are the experiments whose trials run a simulation kernel.
var withKernels = map[string]bool{
	"E2": true, "E3": true, "E4": true, "E5": true, "E6": true,
	"E9": true, "E10": true, "E11": true, "E13": true, "E14": true,
	"E15": true, "E16": true, "F1": true,
}

// render flattens a table to the exact bytes a user sees; byte equality
// of this string is the determinism contract under test.
func render(t *Table) string { return t.String() + "\n" + t.Markdown() }

// runLeg runs one experiment at Quick scale under l, restoring every
// process-wide setting it changes. A traced leg also returns the JSONL
// stream of every trial, drained in trial order.
func runLeg(r Runner, l leg) (*Table, string, error) {
	trial.SetParallelism(l.parallel)
	defer trial.SetParallelism(0)
	if l.gomaxprocs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(l.gomaxprocs))
	}
	if !l.traced {
		return r.Run(Quick), "", nil
	}
	old := trace.DefaultCapacity()
	trace.SetDefaultCapacity(1 << 15)
	defer trace.SetDefaultCapacity(old)
	var buf bytes.Buffer
	var werr error
	trial.SetTraceSink(func(i int, rec *trace.Recorder) {
		fmt.Fprintf(&buf, "# trial %d\n", i)
		if err := rec.WriteJSONL(&buf, trace.All()); err != nil && werr == nil {
			werr = fmt.Errorf("trial %d: WriteJSONL: %w", i, err)
		}
	})
	defer trial.SetTraceSink(nil)
	return r.Run(Quick), buf.String(), werr
}

// runs is one experiment's matrix: a table per leg, the JSONL stream of
// each traced leg, and for E15 the table with brute-force fan-out.
type runs struct {
	tabs    []*Table
	streams []string
	brute   *Table
	err     error
}

var (
	matrixMu sync.Mutex
	matrix   = map[string]*runs{}
)

// matrixFor runs r once per leg, the first time any test asks, and
// hands every later caller the same runs. Each test below checks one
// face of the determinism contract on them, so the suite executes once
// per leg however many tests look at it.
func matrixFor(t *testing.T, r Runner) *runs {
	t.Helper()
	matrixMu.Lock()
	defer matrixMu.Unlock()
	m, ok := matrix[r.ID]
	if !ok {
		m = &runs{tabs: make([]*Table, len(legs)), streams: make([]string, len(legs))}
		for i, l := range legs {
			var err error
			m.tabs[i], m.streams[i], err = runLeg(r, l)
			if err != nil && m.err == nil {
				m.err = err
			}
		}
		if r.ID == "E15" {
			e15BruteForce = true
			m.brute = r.Run(Quick)
			e15BruteForce = false
		}
		matrix[r.ID] = m
	}
	if m.err != nil {
		t.Fatalf("%s: %v", r.ID, m.err)
	}
	return m
}

// byID looks up a registered experiment or fails the test.
func byID(t *testing.T, id string) Runner {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	return r
}

// same fails the test if a and b differ, showing both around the first
// differing byte.
func same(t *testing.T, what, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-200)
	t.Errorf("%s differ at byte %d:\n--- first ---\n%s\n--- second ---\n%s",
		what, i, a[lo:min(len(a), i+200)], b[lo:min(len(b), i+200)])
}

// TestAllExperimentsQuick holds every experiment's first-leg table to
// its shape: an ID, rows as wide as the columns, a finding, and both
// renders. E9 must also print its committed golden.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			tab := matrixFor(t, r).tabs[0]
			if tab.ID != r.ID {
				t.Fatalf("table ID = %q, want %q", tab.ID, r.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("ragged row: %v", row)
				}
			}
			if tab.Finding == "" {
				t.Fatal("no finding")
			}
			if !strings.Contains(tab.String(), tab.ID) || !strings.Contains(tab.Markdown(), "|") {
				t.Fatalf("a render lacks the ID or the table:\n%s", render(tab))
			}
			if r.ID == "E9" {
				// What `iiotbench -only E9` prints, minus its wall-time lines.
				golden, err := os.ReadFile("testdata/e9_golden.txt")
				if err != nil {
					t.Fatal(err)
				}
				same(t, "E9 table and testdata/e9_golden.txt", tab.String()+"\n\n", string(golden))
			}
			if !t.Failed() {
				t.Log("\n" + tab.String())
			}
		})
	}
}

// TestDeterminismSameSeedSameTable is the DESIGN.md §5 regression gate:
// each experiment carries its own fixed seed, so every leg — at either
// parallelism, traced or not — renders byte-identical table bytes.
func TestDeterminismSameSeedSameTable(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			m := matrixFor(t, r)
			for i := 1; i < len(legs); i++ {
				same(t, fmt.Sprintf("tables of legs %+v and %+v", legs[0], legs[i]),
					render(m.tabs[0]), render(m.tabs[i]))
			}
		})
	}
}

// TestParallelMatchesSequential proves that fanning trials out across
// eight workers moves neither a table byte nor a Stats field: the
// aggregated kernel stats are order-independent sums and maxes.
func TestParallelMatchesSequential(t *testing.T) {
	for _, r := range All() {
		m := matrixFor(t, r)
		same(t, r.ID+" tables at parallelism 1 and 8", render(m.tabs[0]), render(m.tabs[1]))
		if !reflect.DeepEqual(m.tabs[0].Stats, m.tabs[1].Stats) {
			t.Errorf("%s: stats at parallelism 1 %+v differ from parallelism 8 %+v",
				r.ID, m.tabs[0].Stats, m.tabs[1].Stats)
		}
	}
}

// TestTraceDeterminism holds the flight recorder to the strongest
// observability contract: the full JSONL event stream of every trial,
// in trial order, plus the table is byte-identical at parallelism 1
// and 8.
func TestTraceDeterminism(t *testing.T) {
	for _, r := range All() {
		m := matrixFor(t, r)
		same(t, r.ID+" traced runs at parallelism 1 and 8",
			m.streams[2]+"\n"+render(m.tabs[2]), m.streams[3]+"\n"+render(m.tabs[3]))
	}
}

// TestStatsPopulated checks that every experiment reports its trials
// through the runner, and the kernel-backed ones their event counters.
func TestStatsPopulated(t *testing.T) {
	for _, r := range All() {
		tab := matrixFor(t, r).tabs[0]
		if tab.Stats.Trials == 0 {
			t.Errorf("%s: no trials reported", r.ID)
		}
		if withKernels[r.ID] && tab.Stats.Events.Fired == 0 {
			t.Errorf("%s: expected kernel events, stats = %+v", r.ID, tab.Stats)
		}
	}
}

// TestChurnDeterminism pins the churn engine's reproducibility contract
// at the experiment level: E14's built-in seeds produce the same table
// and event stream whether its soak trials run on one worker or eight.
// That a different churn seed draws a different schedule is scenario's
// TestChurnSeedSensitivity.
func TestChurnDeterminism(t *testing.T) {
	m := matrixFor(t, byID(t, "E14"))
	same(t, "E14 tables at parallelism 1 and 8", render(m.tabs[0]), render(m.tabs[1]))
	same(t, "E14 event streams at parallelism 1 and 8", m.streams[2], m.streams[3])
}

// TestShardWorkerInvariance is the sharded engine's analogue of
// TestParallelMatchesSequential: E15's table is byte-identical whether
// its stripes execute on one OS thread or four (GOMAXPROCS bounds the
// stripe workers). The brute-force fan-out must reproduce it too: kept
// link lists are an optimization, not a model change.
func TestShardWorkerInvariance(t *testing.T) {
	m := matrixFor(t, byID(t, "E15"))
	same(t, "E15 tables at GOMAXPROCS 1 and 4", render(m.tabs[0]), render(m.tabs[1]))
	same(t, "E15 tables with indexed and brute-force fan-out", render(m.tabs[0]), render(m.brute))
}

func TestTableAddRowValidatesArity(t *testing.T) {
	tab := &Table{ID: "X", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.AddRow("only-one")
}
