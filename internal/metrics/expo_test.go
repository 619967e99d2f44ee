package metrics

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestLabeledSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.CounterWith("mac.retries", L("mac", "csma"))
	b := r.CounterWith("mac.retries", L("mac", "lpl"))
	if a == b {
		t.Fatal("different label values returned the same counter")
	}
	if r.CounterWith("mac.retries", L("mac", "csma")) != a {
		t.Fatal("same label set did not return the same counter")
	}
	// Label order must not matter.
	x := r.GaugeWith("g", L("a", "1"), L("b", "2"))
	y := r.GaugeWith("g", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order changed series identity")
	}
	if r.Counter("plain") != r.CounterWith("plain") {
		t.Fatal("Counter(name) and CounterWith(name) disagree")
	}
}

func TestCounterNamesDistinct(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("mac.retries", L("mac", "csma")).Inc()
	r.CounterWith("mac.retries", L("mac", "lpl")).Inc()
	r.Counter("radio.tx_frames").Inc()
	names := r.CounterNames()
	want := []string{"mac.retries", "radio.tx_frames"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("CounterNames() = %v, want %v", names, want)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("b.count", L("k", "2")).Add(2)
	r.CounterWith("b.count", L("k", "1")).Add(1)
	r.Counter("a.count").Add(5)
	r.Gauge("z.gauge").Set(-3)
	h := r.HistogramWith("lat", L("op", "get"))
	h.Observe(1)
	h.Observe(3)

	pts := r.Snapshot()
	if len(pts) != 5 {
		t.Fatalf("Snapshot has %d points, want 5", len(pts))
	}
	// Counters first (sorted by name then labels), then gauges, then
	// histograms.
	if pts[0].Name != "a.count" || pts[0].Value != 5 {
		t.Errorf("pts[0] = %+v", pts[0])
	}
	if pts[1].Name != "b.count" || pts[1].Labels[0].Value != "1" {
		t.Errorf("pts[1] = %+v", pts[1])
	}
	if pts[2].Name != "b.count" || pts[2].Labels[0].Value != "2" {
		t.Errorf("pts[2] = %+v", pts[2])
	}
	if pts[3].Kind != KindGauge || pts[3].Value != -3 {
		t.Errorf("pts[3] = %+v", pts[3])
	}
	hp := pts[4]
	if hp.Kind != KindHistogram || hp.Hist == nil || hp.Hist.Count != 2 || hp.Value != 4 {
		t.Errorf("pts[4] = %+v hist=%+v", hp, hp.Hist)
	}

	// Snapshot JSON-encodes deterministically (sorted slice, named kinds).
	j1, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Error("snapshot JSON not stable across calls")
	}
	if !strings.Contains(string(j1), `"kind":"counter"`) {
		t.Errorf("kind not named in JSON: %s", j1)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("mac.retries", L("mac", "csma")).Add(7)
	r.CounterWith("mac.retries", L("mac", "lpl")).Add(2)
	r.Gauge("rpl.rank").Set(256)
	h := r.Histogram("e2e.latency")
	h.Observe(0.5)
	h.Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mac_retries counter\n",
		"mac_retries{mac=\"csma\"} 7\n",
		"mac_retries{mac=\"lpl\"} 2\n",
		"# TYPE rpl_rank gauge\n",
		"rpl_rank 256\n",
		"# TYPE e2e_latency summary\n",
		"e2e_latency{quantile=\"0.5\"} 0.5\n",
		"e2e_latency_sum 2\n",
		"e2e_latency_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The TYPE line must appear once per family, not per series.
	if strings.Count(out, "# TYPE mac_retries") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", out)
	}
	// Output must be byte-stable.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Error("prometheus output not deterministic")
	}
}

// goldenRegistry exercises everything series identity and exposition
// order depend on: one name held by all three kinds, label sets given
// in different orders, names outside the Prometheus charset, and
// histograms observed out of order, once, and never.
func goldenRegistry() *Registry {
	r := &Registry{}
	r.CounterWith("mac.retries", L("mac", "lpl"), L("node", "7")).Add(2)
	r.CounterWith("mac.retries", L("node", "3"), L("mac", "csma")).Add(7)
	r.Counter("mac.retries").Inc()
	r.Counter("shared").Add(1.5)
	r.Gauge("shared").Set(-2.25)
	r.Histogram("shared").Observe(0.125)
	r.GaugeWith("rpl-rank/now", L("node", "a b\"c")).Set(256)
	r.Gauge("empty.gauge")
	r.Histogram("empty.hist")
	h := r.HistogramWith("e2e.latency", L("op", "get"))
	for i := 0; i < 100; i++ {
		h.Observe(float64((i*37)%101) / 8)
	}
	r.HistogramWith("e2e.latency", L("op", "put")).ObserveDuration(1500 * time.Millisecond)
	r.Counter("a.first").Add(1e21)
	return r
}

// TestSnapshotBytesUnchanged pins both expositions against dumps taken
// from the three-map registry this one replaced.
func TestSnapshotBytesUnchanged(t *testing.T) {
	r := goldenRegistry()
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(r.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{"testdata/golden_prometheus.txt": prom.String(), "testdata/golden_snapshot.json": string(js) + "\n"} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs:\n--- got\n%s--- want\n%s", file, got, want)
		}
	}
}
