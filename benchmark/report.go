package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSummary is one metric of one workload over the repeats.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"` // host-time end-to-end metrics only
	Exact  bool      `json:"exact,omitempty"` // virtual-time metric or declared exact count
	Moves  []move    `json:"moves,omitempty"` // per-layer only: the end-to-end metric it should move
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadReport is one workload's section of the report.
type workloadReport struct {
	Name      string                   `json:"name"`
	Why       string                   `json:"why"`
	Loop      string                   `json:"loop"`
	Sizes     json.RawMessage          `json:"sizes,omitempty"`
	Correct   bool                     `json:"correct"`
	Attempted []int64                  `json:"attempted"`
	Failed    []int64                  `json:"failed"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]metricSummary `json:"per_layer"`
}

// envelope describes the host and the invocation.
type envelope struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeats    int     `json:"repeats"`
	Scale      string  `json:"scale"`
	Statement  string  `json:"statement"`
	Generated  string  `json:"generated_at"`
}

type report struct {
	Envelope  envelope         `json:"envelope"`
	Workloads []workloadReport `json:"workloads"`
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance procedure uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

func summarize(values []float64) (n int, med, q1, q3 float64) {
	q1, med, q3 = quartiles(values)
	return len(values), med, q1, q3
}

// spread is the interquartile distance as a share of the median.
func (m metricSummary) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Median
	if s < 0 {
		s = -s
	}
	return s
}

// childRun executes one workload in a fresh process and returns its
// result line, its native end-to-end metrics and its sizes. It echoes
// the child's notes and checks when verbose, and failed checks always.
func childRun(exe string, o options, tag string, verbose bool) (resultLine, map[string]float64, json.RawMessage, error) {
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
	}
	if o.smoke {
		args = append(args, "-scale", "smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var line resultLine
	var sizes json.RawMessage
	var e2e map[string]float64
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		text := sc.Text()
		last = text
		switch {
		case strings.HasPrefix(text, "  check FAIL"),
			verbose && (strings.HasPrefix(text, "  note ") || strings.HasPrefix(text, "  check ")):
			fmt.Printf("  [%s]%s\n", tag, text[1:])
		case strings.HasPrefix(text, "  sizes "):
			sizes = json.RawMessage(strings.TrimPrefix(text, "  sizes "))
		case strings.HasPrefix(text, "  e2e "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(text, "  e2e ")), &e2e); err != nil {
				return line, nil, nil, fmt.Errorf("%s %s: e2e line: %w", o.workload, tag, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, nil, nil, fmt.Errorf("%s %s: %w", o.workload, tag, runErr)
		}
		return line, nil, nil, fmt.Errorf("%s %s: no result line: %w", o.workload, tag, err)
	}
	return line, e2e, sizes, nil
}

// runAll runs every workload in fresh child processes — timedRepeats
// timed runs and one traced run each — and prints every metric by name.
func runAll(o options, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf(1, "benchmark: %v", err)
	}
	const repeats = timedRepeats
	scale := "full"
	if o.smoke {
		scale = "smoke"
	}
	rep := report{Envelope: envelope{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), Seed: o.seed, Seconds: o.seconds, Repeats: repeats, Scale: scale,
		Statement: inProcessStatement, Generated: time.Now().UTC().Format(time.RFC3339),
	}}
	e := rep.Envelope
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s rev=%s seed=%d seconds=%g repeats=%d scale=%s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitRev, e.Seed, e.Seconds, e.Repeats, e.Scale)
	fmt.Printf("benchmark: %s\n", inProcessStatement)

	allCorrect := true
	for _, w := range workloads {
		fmt.Printf("\n== %s — %s\n   %s\n", w.Name, w.Why, w.Loop)
		wr := workloadReport{Name: w.Name, Why: w.Why, Loop: w.Loop, Correct: true,
			EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricSummary{}}
		co := o
		co.workload = w.Name
		e2e := map[string][]float64{}
		for i := 0; i < repeats; i++ {
			co.trace = false
			line, native, sizes, err := childRun(exe, co, fmt.Sprintf("timed %d/%d", i+1, repeats), i == 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			wr.Sizes = sizes
			wr.Correct = wr.Correct && line.Correct
			wr.Attempted = append(wr.Attempted, line.Attempted)
			wr.Failed = append(wr.Failed, line.Failed)
			for name, v := range native {
				e2e[name] = append(e2e[name], v)
			}
		}
		co.trace = true
		traced, _, _, err := childRun(exe, co, "traced", true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		wr.Correct = wr.Correct && traced.Correct
		for i := range e2eMetrics {
			m := &e2eMetrics[i]
			if !m.nativeOn(w.Name) {
				continue
			}
			ms := metricSummary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Exact: m.Virtual, Values: e2e[m.Name]}
			ms.N, ms.Median, ms.Q1, ms.Q3 = summarize(ms.Values)
			wr.EndToEnd[m.Name] = ms
		}
		for i := range layerMetrics {
			m := &layerMetrics[i]
			v := traced.Metrics[m.Name].Value
			if v == 0 && !m.movesOn(w.Name) {
				continue // a layer this workload does not touch
			}
			wr.PerLayer[m.Name] = metricSummary{Unit: m.Unit, Better: m.Better, Exact: m.Exact, Moves: m.Moves,
				N: 1, Median: v, Q1: v, Q3: v, Values: []float64{v}}
		}
		printWorkload(os.Stdout, &wr)
		allCorrect = allCorrect && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	fmt.Printf("\nend-to-end metric definitions\n")
	for _, m := range e2eMetrics {
		fmt.Printf("   %-26s %s\n", m.Name, m.Def)
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("\nreport written to %s\n", jsonOut)
	}
	if !allCorrect {
		fmt.Println("\nbenchmark: correctness checks FAILED")
		return 1
	}
	fmt.Println("\nbenchmark: all correctness checks passed")
	return 0
}

// printWorkload prints every metric by name with unit, sample count,
// median and quartiles.
func printWorkload(w io.Writer, wr *workloadReport) {
	fmt.Fprintf(w, "   end-to-end (n = timed repeats; v = virtual time, must repeat exactly; bound = regression bound)\n")
	fmt.Fprintf(w, "   %-26s %-12s %3s %14s %14s %14s  %s\n", "metric", "unit", "n", "median", "q1", "q3", "")
	for i := range e2eMetrics {
		m := &e2eMetrics[i]
		s, ok := wr.EndToEnd[m.Name]
		if !ok {
			continue // not native to this workload
		}
		tag := fmt.Sprintf("%s is better, bound %.0f%%", m.Better, m.Bound*100)
		if m.Virtual {
			tag = fmt.Sprintf("%s is better, v", m.Better)
		}
		fmt.Fprintf(w, "   %-26s %-12s %3d %14.6g %14.6g %14.6g  %s\n", m.Name, s.Unit, s.N, s.Median, s.Q1, s.Q3, tag)
	}
	fmt.Fprintf(w, "   per-layer (traced run; -> the end-to-end metric it should move on this workload)\n")
	for i := range layerMetrics {
		m := &layerMetrics[i]
		s, ok := wr.PerLayer[m.Name]
		if !ok {
			continue
		}
		var moves []string
		for _, mv := range m.Moves {
			for _, on := range mv.Workloads {
				if on == wr.Name {
					moves = append(moves, mv.E2E)
				}
			}
		}
		fmt.Fprintf(w, "   %-32s %-8s %3d %14.6g  -> %s\n", m.Name, s.Unit, s.N, s.Median, strings.Join(moves, ", "))
	}
	var att, fail int64
	for i := range wr.Attempted {
		att += wr.Attempted[i]
		fail += wr.Failed[i]
	}
	fmt.Fprintf(w, "   attempted %d, failed %d over %d timed runs; correct=%v\n", att, fail, len(wr.Attempted), wr.Correct)
}

// --- compare ---

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict compares one metric across two reports.
func verdict(old, cur metricSummary) string {
	if old.Exact {
		if old.Median == cur.Median && old.Q1 == cur.Q1 && old.Q3 == cur.Q3 {
			return "exact"
		}
		return "DIFFERS"
	}
	if old.Median == 0 {
		return "n/a"
	}
	change := (cur.Median - old.Median) / old.Median
	worse := change
	if old.Better == "higher" {
		worse = -change
	}
	bound := old.Bound
	if bound == 0 {
		return fmt.Sprintf("%+.1f%%", change*100) // per-layer metrics carry no bound
	}
	if old.spread() > bound || cur.spread() > bound {
		// Spread wider than the bound: only a clean separation counts.
		if separated(old, cur) {
			if worse > 0 {
				return "REGRESSED"
			}
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "REGRESSED"
	case worse < -bound:
		return "improved"
	}
	return "ok"
}

// separated reports whether every run of one side reads better than
// every run of the other.
func separated(a, b metricSummary) bool {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return false
	}
	as, bs := sortedCopy(a.Values), sortedCopy(b.Values)
	return as[len(as)-1] < bs[0] || bs[len(bs)-1] < as[0]
}

func failShare(wr *workloadReport) string {
	var att, fail int64
	for i := range wr.Attempted {
		att += wr.Attempted[i]
		fail += wr.Failed[i]
	}
	undelivered := 1 - wr.EndToEnd["delivered_share"].Median
	return fmt.Sprintf("%d/%d hard, %.4f undelivered", fail, att, undelivered)
}

// runCompare prints one row per workload — verdict counts and failure
// shares side by side — then the per-metric detail. Exit status 1 when
// any metric regressed past its bound or an exact metric differs.
func runCompare(w io.Writer, oldPath, newPath string) int {
	old, err := loadReport(oldPath)
	if err == nil {
		var cur *report
		if cur, err = loadReport(newPath); err == nil {
			return compareReports(w, old, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareReports(w io.Writer, old, cur *report) int {
	fmt.Fprintf(w, "old: rev=%s seed=%d seconds=%g repeats=%d | new: rev=%s seed=%d seconds=%g repeats=%d\n",
		old.Envelope.GitRev, old.Envelope.Seed, old.Envelope.Seconds, old.Envelope.Repeats,
		cur.Envelope.GitRev, cur.Envelope.Seed, cur.Envelope.Seconds, cur.Envelope.Repeats)
	if old.Envelope.Seed != cur.Envelope.Seed || old.Envelope.Seconds != cur.Envelope.Seconds || old.Envelope.Scale != cur.Envelope.Scale {
		fmt.Fprintf(w, "warning: seed, seconds or scale differ — exact metrics are only comparable at identical inputs\n")
	}
	byName := map[string]*workloadReport{}
	for i := range cur.Workloads {
		byName[cur.Workloads[i].Name] = &cur.Workloads[i]
	}
	bad := false
	type detail struct{ workload, lines string }
	var details []detail
	fmt.Fprintf(w, "\n%-14s %4s %9s %10s %10s %8s   %-34s %-34s\n", "workload", "ok", "improved", "REGRESSED", "unresolved", "DIFFERS", "failures old", "failures new")
	for i := range old.Workloads {
		ow := &old.Workloads[i]
		nw := byName[ow.Name]
		if nw == nil {
			fmt.Fprintf(w, "%-14s missing from the new report\n", ow.Name)
			bad = true
			continue
		}
		counts := map[string]int{}
		var sb strings.Builder
		line := func(kind, name string, o, n metricSummary) {
			v := verdict(o, n)
			key := v
			if strings.HasSuffix(v, "%") || v == "n/a" {
				key = "layer"
			}
			if v == "exact" {
				key = "ok"
			}
			counts[key]++
			if v == "REGRESSED" || v == "DIFFERS" {
				bad = true
			}
			fmt.Fprintf(&sb, "  %-9s %-32s %-10s %14.6g -> %-14.6g spread %.3f/%.3f  %s\n", kind, name, o.Unit, o.Median, n.Median, o.spread(), n.spread(), v)
		}
		for j := range e2eMetrics {
			m := e2eMetrics[j].Name
			if o, ok := ow.EndToEnd[m]; ok {
				line("e2e", m, o, nw.EndToEnd[m])
			}
		}
		names := make([]string, 0, len(ow.PerLayer))
		for name := range ow.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			o, n := ow.PerLayer[name], nw.PerLayer[name]
			if o.Median == 0 && n.Median == 0 {
				continue
			}
			if o.Exact && !simWorkload(ow.Name) {
				o.Exact = false // counts are only deterministic under the virtual clock
			}
			line("layer", name, o, n)
		}
		fmt.Fprintf(w, "%-14s %4d %9d %10d %10d %8d   %-34s %-34s\n", ow.Name,
			counts["ok"], counts["improved"], counts["REGRESSED"], counts["unresolved"], counts["DIFFERS"], failShare(ow), failShare(nw))
		details = append(details, detail{ow.Name, sb.String()})
	}
	for _, d := range details {
		fmt.Fprintf(w, "\n%s\n%s", d.workload, d.lines)
	}
	if bad {
		fmt.Fprintf(w, "\ncompare: FAIL — a metric regressed past its bound or an exact metric differs\n")
		return 1
	}
	fmt.Fprintf(w, "\ncompare: no regression past a bound; exact metrics identical\n")
	return 0
}

func simWorkload(name string) bool {
	for _, w := range simWorkloads {
		if w == name {
			return true
		}
	}
	return false
}
