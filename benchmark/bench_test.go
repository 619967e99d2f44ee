package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"iiotds/internal/store"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogue checks the metric catalogue against the limits the
// benchmark contract sets and against itself: every layer metric names
// an end-to-end metric and workloads that exist.
func TestCatalogue(t *testing.T) {
	if n := len(e2eMetrics); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Fatalf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	isWorkload := map[string]bool{}
	for _, w := range workloads {
		name("workload", w.Name)
		isWorkload[w.Name] = true
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range e2eMetrics {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Virtual != (m.Bound == 0) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v; a host-time metric has one in (0, 0.25], a virtual-time metric none", m.Name, m.Bound)
		}
		if m.Driver && (m.Virtual || len(m.Native) != len(workloads)) {
			t.Errorf("%s: the driver reads its end_to_end metrics from every workload and needs a bound for each", m.Name)
		}
		if len(m.Native) == 0 {
			t.Errorf("%s: native to no workload", m.Name)
		}
		for _, w := range m.Native {
			if !isWorkload[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	for _, m := range layerMetrics {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("%s: a layer metric is <layer>.<what>", m.Name)
		}
		if len(m.Moves) == 0 {
			t.Errorf("%s: names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range m.Moves {
			e := e2eByName(mv.E2E)
			if e == nil {
				t.Errorf("%s: moves unknown end-to-end metric %q", m.Name, mv.E2E)
				continue
			}
			if len(mv.Workloads) == 0 {
				t.Errorf("%s -> %s: on no workload", m.Name, mv.E2E)
			}
			for _, w := range mv.Workloads {
				if !isWorkload[w] {
					t.Errorf("%s -> %s: unknown workload %q", m.Name, mv.E2E, w)
				} else if !e.nativeOn(w) {
					t.Errorf("%s -> %s: %s is not measured on %s", m.Name, mv.E2E, mv.E2E, w)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that the driver-facing BENCHMARK.json is the
// projection of the catalogue and has exactly the contract's keys.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json: key %q missing", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json: unexpected key %q", k)
	}
	want, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(data), want) {
		t.Errorf("BENCHMARK.json differs from the catalogue, which projects to:\n%s", want)
	}
	f := benchmarkJSON()
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, want 1..128", n)
	}
	// The result line carries exactly the file's lists.
	r := newResult()
	for traced, want := range map[bool]int{false: len(f.EndToEnd), true: len(f.PerLayer)} {
		if got := len(driverMetrics(r, traced)); got != want {
			t.Errorf("result line with trace=%v carries %d metrics, BENCHMARK.json lists %d", traced, got, want)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// TestSmoke runs all five workloads tiny, in this process, and checks
// that each reports exactly its native end-to-end metrics (non-zero)
// and passes its own correctness checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := w.run(options{workload: w.Name, seed: 7, seconds: 1.5, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range r.checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if len(r.checks) == 0 {
				t.Error("workload ran no correctness check")
			}
			r.e2e["peak_rss_mb"] = peakRSSMB()
			for _, m := range e2eMetrics {
				v, measured := r.e2e[m.Name]
				switch {
				case measured != m.nativeOn(w.Name):
					t.Errorf("%s: native to %s is %v, measured is %v", m.Name, w.Name, m.nativeOn(w.Name), measured)
				case measured && !(v > 0):
					t.Errorf("%s = %v on %s; end-to-end metrics must never be 0", m.Name, v, w.Name)
				}
			}
			if r.attempted < 1 || r.failed < 0 {
				t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
			}
			for name := range r.layer {
				if layerByName(name) == nil {
					t.Errorf("workload emitted a layer metric the catalogue does not list: %q", name)
				}
			}
		})
	}
}

// TestTracedSmoke checks that a traced run produces spans, journey
// attribution and per-package CPU shares.
func TestTracedSmoke(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	r, err := runMesh(options{workload: wMesh, seed: 7, seconds: 30, smoke: true, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if _, err := os.Stat(outDir + "/" + wMesh + ".spans.jsonl"); err != nil {
		t.Errorf("no spans file: %v", err)
	}
	if _, err := os.Stat(outDir + "/" + wMesh + ".cpu.pprof"); err != nil {
		t.Errorf("no CPU profile: %v", err)
	}
	for _, m := range []string{"mac.virt_ms_per_journey", "rpl.hops_p50", "trace.ring_coverage", "mac.strobes", "sim.events_fired"} {
		if !(r.layer[m] > 0) {
			t.Errorf("traced run: %s = %v, want > 0", m, r.layer[m])
		}
	}
	shares := r.layer["go.runtime_cpu_share"]
	for _, l := range []string{"radio", "mac", "link", "rpl", "netbuf"} {
		shares += r.layer[l+".cpu_share"]
	}
	if shares <= 0 || shares > 1 {
		t.Errorf("per-package CPU shares sum to %v", shares)
	}
}

// TestChecksFire shows every correctness check failing on a
// deliberately wrong expectation — a check that cannot fail checks
// nothing.
func TestChecksFire(t *testing.T) {
	t.Run("same-seed-repeat", func(t *testing.T) {
		a := map[string]float64{"sim.events_fired": 1000, "probe_rtt_p50_ms": 51.5}
		if d := exactDiffs(a, map[string]float64{"sim.events_fired": 1000, "probe_rtt_p50_ms": 51.5}); len(d) != 0 {
			t.Fatalf("identical repeats reported %v", d)
		}
		if d := exactDiffs(a, map[string]float64{"sim.events_fired": 1001, "probe_rtt_p50_ms": 51.5}); len(d) != 1 {
			t.Fatalf("one differing count reported %v", d)
		}
		if d := exactDiffs(a, map[string]float64{"sim.events_fired": 1000}); len(d) != 1 {
			t.Fatalf("a missing metric reported %v", d)
		}
	})
	t.Run("acked-points-readable", func(t *testing.T) {
		got := []store.Point{{T: time.Second, V: 21.5}, {T: 2 * time.Second, V: 22}}
		if m, mm, ex := ackedPointsDiff(map[time.Duration]float64{time.Second: 21.5, 2 * time.Second: 22}, got); m+mm+ex != 0 {
			t.Fatalf("matching points reported %d/%d/%d", m, mm, ex)
		}
		// The wrong expectation: a value the store never held, a point
		// it never got, and one it should not have.
		m, mm, ex := ackedPointsDiff(map[time.Duration]float64{time.Second: 99, 3 * time.Second: 1}, got)
		if m != 1 || mm != 1 || ex != 1 {
			t.Fatalf("got missing=%d mismatched=%d extra=%d, want 1/1/1", m, mm, ex)
		}
	})
	t.Run("observers-saw-each-round-once", func(t *testing.T) {
		seen := []uint32{5, 5, 5, 5}
		churned := make([]bool, 4)
		if m, _, _ := missingNotifications(seen, churned, 2); m != 0 {
			t.Fatalf("complete rounds reported %d missing", m)
		}
		seen[2] = 3 // observer 2 missed two rounds of resource 0
		if m, stable, rounds := missingNotifications(seen, churned, 2); m != 2 || stable != 4 || rounds != 10 {
			t.Fatalf("got missing=%d stable=%d rounds=%d, want 2/4/10", m, stable, rounds)
		}
		churned[2] = true // a re-registered observer may legitimately miss rounds
		if m, _, _ := missingNotifications(seen, churned, 2); m != 0 {
			t.Fatalf("a churned observer was held to exactly-once: %d missing", m)
		}
	})
	t.Run("sampled-series-hold-sent-points", func(t *testing.T) {
		in := &fleetInput{seed: 7, tick: 200 * time.Millisecond, lateCut: ^uint64(0) / 100, lateMax: 5}
		var sent []store.Point
		for k := 0; k < 50; k++ {
			sent = append(sent, in.point(3, k))
		}
		eng := store.NewSeriesEngine(0)
		eng.AppendBatch(sent)
		got := eng.Range(0, time.Hour)
		if !seriesHolds(sent, got) {
			t.Fatal("a series read back intact was reported as different")
		}
		wrong := append([]store.Point(nil), sent...)
		wrong[10].V++
		if seriesHolds(wrong, got) {
			t.Fatal("a wrong expected value went unnoticed")
		}
		if seriesHolds(sent[:49], got) {
			t.Fatal("a wrong expected length went unnoticed")
		}
	})
	t.Run("result-reports-a-failed-check", func(t *testing.T) {
		r := newResult()
		r.check("ok", true, "")
		if !r.correct() {
			t.Fatal("passing checks reported incorrect")
		}
		r.check("bad", false, "deliberately wrong")
		if r.correct() {
			t.Fatal("a failed check did not make the result incorrect")
		}
	})
}

// TestCompare exercises -compare: exact match demanded of virtual
// metrics, bounds applied to the rest, unresolved when the spread is
// wider than the bound.
func TestCompare(t *testing.T) {
	mk := func(values ...float64) metricSummary {
		m := metricSummary{Unit: "ms", Better: "lower", Bound: 0.10, Values: values}
		m.N, m.Median, m.Q1, m.Q3 = summarize(values)
		return m
	}
	exact := func(v float64) metricSummary { m := mk(v, v, v); m.Exact = true; return m }
	cases := []struct {
		name     string
		old, cur metricSummary
		want     string
	}{
		{"within bound", mk(100, 101, 102), mk(104, 105, 106), "ok"},
		{"regressed", mk(100, 101, 102), mk(120, 121, 122), "REGRESSED"},
		{"improved", mk(100, 101, 102), mk(80, 81, 82), "improved"},
		{"spread wider than bound", mk(80, 100, 130), mk(90, 105, 140), "unresolved"},
		{"wide spread but separated", mk(80, 100, 130), mk(200, 230, 260), "REGRESSED"},
		{"virtual identical", exact(5074.8), exact(5074.8), "exact"},
		{"virtual moved", exact(5074.8), exact(5074.9), "DIFFERS"},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := mk(100, 101, 102)
	higher.Better = "higher"
	lower := mk(80, 81, 82)
	lower.Better = "higher"
	if got := verdict(higher, lower); got != "REGRESSED" {
		t.Errorf("higher-is-better metric that fell: verdict %q", got)
	}

	wr := func(ack float64) workloadReport {
		return workloadReport{Name: wFig1, Attempted: []int64{100}, Failed: []int64{0},
			EndToEnd: map[string]metricSummary{"uplink_ack_p50_ms": exact(ack), "delivered_share": mk(0.8, 0.8, 0.8)},
			PerLayer: map[string]metricSummary{}}
	}
	old := &report{Workloads: []workloadReport{wr(5000)}}
	var out bytes.Buffer
	if code := compareReports(&out, old, &report{Workloads: []workloadReport{wr(5000)}}); code != 0 {
		t.Errorf("identical reports: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, old, &report{Workloads: []workloadReport{wr(5001)}}); code != 1 {
		t.Errorf("a moved virtual metric: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "DIFFERS") || !strings.Contains(out.String(), "undelivered") {
		t.Errorf("compare output lacks the verdict or the failure shares:\n%s", out.String())
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance procedure uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestLeafPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"iiotds/internal/sim.(*Kernel).Step":      "sim",
		"iiotds/internal/core.buildNode.func1":    "core",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/atomic.(*Uint32).Load":  "runtime",
		"sort.Slice":                              "other",
		"main.runFig1":                            "benchmark",
		"iiotds/internal/radio.(*Medium).Send":    "radio",
		"iiotds/internal/coap.(*Resource).Notify": "coap",
		"": "other",
		"iiotds/internal/store.(*Replica).mu.Lock": "store",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestLatHist(t *testing.T) {
	var h latHist
	for i := int64(1); i <= 100000; i++ {
		h.observe(i * 1000)
	}
	for _, p := range []float64{50, 99} {
		want := p / 100 * 100000 * 1000
		if got := h.quantileNs(p); got < want*0.97 || got > want*1.03 {
			t.Errorf("p%v = %v, want %v within 3%%", p, got, want)
		}
	}
}
