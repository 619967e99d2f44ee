// Command benchmark is the repo's one benchmark: five workloads over
// the paper's Fig. 1 path (device -> mesh -> border router -> store +
// observers), 14 end-to-end metrics with regression bounds or exactness,
// and per-layer attribution. See README.md beside this file.
//
//	go run ./benchmark                         # every workload, repeats, summary tables
//	go run ./benchmark -workload gw-fanout -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -compare old.json new.json
//
// All load is generated inside this process by at most nproc
// goroutines; no traffic crosses a real link. The single exception is
// gw-fanout's 1000-observer leg over loopback UDP, and it is labelled
// as such wherever it is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const inProcessStatement = "load is generated in-process by at most nproc goroutines; no traffic crosses a real link (gw-fanout's coap.udp_notify_p50_ms leg alone uses loopback UDP)"

// timedRepeats is how many timed runs of each workload the one-command
// report takes its medians and quartiles over.
const timedRepeats = 5

func main() {
	var (
		o       options
		traceN  int
		scale   string
		compare bool
		jsonOut string
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process and print its result as the last line (JSON)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase; fixed-work sizes scale by seconds/recorded run length")
	flag.IntVar(&traceN, "trace", 0, "0: timed run, prints end-to-end metrics; 1: traced run (flight recorder, spans, CPU profile), prints per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full: recorded sizes; smoke: tiny plants for the test suite")
	flag.BoolVar(&compare, "compare", false, "compare two -json reports: go run ./benchmark -compare old.json new.json")
	flag.StringVar(&jsonOut, "json", "", "when running every workload, also write the report to this file")
	flag.Parse()

	o.trace = traceN != 0
	switch scale {
	case "full":
	case "smoke":
		o.smoke = true
	default:
		fatalf(2, "benchmark: unknown -scale %q (full, smoke)", scale)
	}
	if o.seconds <= 0 {
		fatalf(2, "benchmark: -seconds must be positive")
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatalf(2, "usage: go run ./benchmark -compare old.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case o.workload != "":
		os.Exit(runOne(o))
	default:
		os.Exit(runAll(o, jsonOut))
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// metricValue is one metric in the driver-facing result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run, with exactly
// these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverMetrics is the result line's metrics: with tracing off the
// driver's end-to-end metrics, with tracing on the other end-to-end
// metrics and every per-layer metric (a metric the workload does not
// have reads 0). The lists are those of benchmarkJSON.
func driverMetrics(r *result, traced bool) map[string]metricValue {
	out := map[string]metricValue{}
	for i := range e2eMetrics {
		if m := &e2eMetrics[i]; m.Driver != traced {
			out[m.Name] = metricValue{Value: r.e2e[m.Name], Unit: m.Unit}
		}
	}
	if traced {
		for i := range layerMetrics {
			m := &layerMetrics[i]
			out[m.Name] = metricValue{Value: r.layer[m.Name], Unit: m.Unit}
		}
	}
	return out
}

// runOne runs one workload in this process. Everything before the last
// line is for people (and, the "e2e" line, for runAll); the last line
// is the driver's.
func runOne(o options) int {
	w := workloadByName(o.workload)
	if w == nil {
		fatalf(2, "benchmark: unknown workload %q", o.workload)
	}
	r, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()

	fmt.Printf("workload %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n", w.Name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	fmt.Printf("  %s\n  %s\n", w.Loop, inProcessStatement)
	if b, err := json.Marshal(r.sizes); err == nil {
		fmt.Printf("  sizes %s\n", b)
	}
	for _, n := range r.notes {
		fmt.Printf("  note  %s\n", n)
	}
	for _, c := range r.checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-30s %s\n", verdict, c.Name, c.Detail)
	}
	for i := range e2eMetrics {
		if m := &e2eMetrics[i]; m.nativeOn(w.Name) {
			fmt.Printf("  %-34s %16.6g %s\n", m.Name, r.e2e[m.Name], m.Unit)
		}
	}
	if o.trace {
		for i := range layerMetrics {
			if m := &layerMetrics[i]; r.layer[m.Name] != 0 || m.movesOn(w.Name) {
				fmt.Printf("  %-34s %16.6g %s\n", m.Name, r.layer[m.Name], m.Unit)
			}
		}
	}
	if b, err := json.Marshal(r.e2e); err == nil {
		fmt.Printf("  e2e %s\n", b)
	}

	line := resultLine{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: driverMetrics(r, o.trace)}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// gitRev names the commit for the envelope; the driver's checkout is
// not a repository, so absence is normal.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchmarkFile is BENCHMARK.json: exactly these keys.
type benchmarkFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []benchWorkload    `json:"workloads"`
	EndToEnd   []benchE2E         `json:"end_to_end"`
	PerLayer   []benchLayerMetric `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON projects the catalogue onto the driver's file format:
// end_to_end holds the driver's end-to-end metrics, per_layer the other
// end-to-end metrics followed by the layer metrics.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.Name, Why: w.Why})
	}
	for i := range e2eMetrics {
		m := &e2eMetrics[i]
		if m.Driver {
			f.EndToEnd = append(f.EndToEnd, benchE2E{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
		} else {
			f.PerLayer = append(f.PerLayer, benchLayerMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	for _, m := range layerMetrics {
		f.PerLayer = append(f.PerLayer, benchLayerMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}
