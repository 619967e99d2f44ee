// Command benchpair measures a change against a base revision with the
// repository's own benchmark, in alternated pairs, and writes one JSON
// summary that a perf claim can quote.
//
// It exports the base revision (default HEAD~1) into a temporary
// directory twice, once for the base and once for an A/A control; the
// change is the working tree, or -head REV exported the same way. Every
// run is BENCHMARK.json's command (`go run ./benchmark`) with
// `-workload W -seed S -trace 0`, started in its side's checkout, so it
// measures what the pipeline measures, the go command's resident-set
// floor in peak_rss_mb included. For every workload it runs ten pairs,
// alternating which side runs first, each A/B pair followed by one A/A
// pair, and reads the JSON result line each run prints last. Every run
// lasts its own benchmark's run length.
// Per end-to-end metric it reports q1/median/q3 per side, wins per pair,
// the exact two-sided sign-test p and a verdict: a change that is not
// significant, or whose median moved less than the A/A control's own
// spread, is noise, and a change whose runs fail their checks, or fail a
// larger share of operations than the base, is failed-checks whatever
// its metrics read. The metrics, their direction and their bounds come
// from BENCHMARK.json.
//
// Examples:
//
//	go run ./cmd/benchpair -workloads fig1-uplink -out pair.json
//	go run ./cmd/benchpair -base 4097ecd -head 1d83fb3 -workloads store-fleet
//
// Run nothing else on the host meanwhile: the pairs share its CPUs with
// whatever else is running, and wall-time metrics move with it.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json benchpair reads.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one benchmark process's outcome.
type run struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// metricSummary is one metric of one workload.
type metricSummary struct {
	Name    string  `json:"name"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Base    spread  `json:"base"`
	Head    spread  `json:"head"`
	Change  float64 `json:"median_change"` // (head − base) / base
	Wins    int     `json:"wins"`
	Losses  int     `json:"losses"`
	Ties    int     `json:"ties"`
	P       float64 `json:"sign_p"`
	AABand  float64 `json:"aa_band"`
	AAP     float64 `json:"aa_sign_p"`
	Verdict string  `json:"verdict"`
}

type workloadSummary struct {
	Workload string           `json:"workload"`
	Metrics  []metricSummary  `json:"metrics"`
	Runs     map[string][]run `json:"runs"` // base, head, aa_base, aa_copy
}

type summary struct {
	Base      string            `json:"base"`
	Head      string            `json:"head"`
	Seed      int64             `json:"seed"`
	Pairs     int               `json:"pairs"`
	Host      map[string]string `json:"host"`
	Workloads []workloadSummary `json:"workloads"`
}

func main() {
	var (
		base      = flag.String("base", "HEAD~1", "base revision, exported from the repository")
		head      = flag.String("head", "", "change revision; empty means the working tree")
		workloads = flag.String("workloads", "", "comma-separated workloads; empty means every one in BENCHMARK.json")
		seed      = flag.Int64("seed", 7, "workload seed, the same on both sides")
		out       = flag.String("out", "", "write the JSON summary here instead of stdout")
	)
	flag.Parse()
	if err := mainErr(*base, *head, *workloads, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(base, head, workloads string, seed int64, out string) error {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("find the repository root: %w", err)
	}
	repo := strings.TrimSpace(string(top))
	raw, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Command) == 0 {
		return errors.New("BENCHMARK.json: no command")
	}
	names := strings.FieldsFunc(workloads, func(r rune) bool { return r == ',' || r == ' ' })
	if len(names) == 0 {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseRev, err := resolve(repo, base)
	if err != nil {
		return err
	}
	baseDir, aaDir := filepath.Join(tmp, "base"), filepath.Join(tmp, "aa_copy")
	for _, dir := range []string{baseDir, aaDir} {
		if err := export(repo, baseRev, dir); err != nil {
			return err
		}
	}
	headDir, headRev := repo, "working tree"
	if head != "" {
		if headRev, err = resolve(repo, head); err != nil {
			return err
		}
		headDir = filepath.Join(tmp, "head")
		if err := export(repo, headRev, headDir); err != nil {
			return err
		}
	}
	// Each side runs in its own checkout, so that what a run reads or
	// leaves behind stays on its side.
	dirs := map[string]string{"base": baseDir, "head": headDir, "aa_base": baseDir, "aa_copy": aaDir}

	sum := summary{
		Base: baseRev, Head: headRev, Seed: seed, Pairs: minPairs,
		Host: map[string]string{"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpus": strconv.Itoa(runtime.NumCPU())},
	}
	for _, w := range names {
		runs := map[string][]run{}
		pair := func(i int, a, b string) error {
			order := []string{a, b}
			if headFirst(i) {
				order[0], order[1] = b, a
			}
			for _, side := range order {
				r, err := runOnce(dirs[side], runArgv(bf.Command, w, seed))
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", w, side, i, err)
				}
				runs[side] = append(runs[side], r)
			}
			return nil
		}
		for i := 0; i < minPairs; i++ {
			logf("%s: pair %d/%d", w, i+1, minPairs)
			if err := pair(i, "base", "head"); err != nil {
				return err
			}
			if err := pair(i, "aa_base", "aa_copy"); err != nil {
				return err
			}
		}
		ws := workloadSummary{Workload: w, Runs: runs}
		for _, m := range bf.EndToEnd {
			ws.Metrics = append(ws.Metrics, summarize(m, runs))
		}
		sum.Workloads = append(sum.Workloads, ws)
	}

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// summarize compares one metric across the A/B pairs, and judges the
// change against the A/A control and the checks of both sides' runs.
func summarize(m metricSpec, runs map[string][]run) metricSummary {
	col := func(side string) []float64 {
		var xs []float64
		for _, r := range runs[side] {
			xs = append(xs, r.Metrics[m.Name])
		}
		return xs
	}
	b, h := col("base"), col("head")
	s := metricSummary{Name: m.Name, Better: m.Better, Bound: m.Bound, Base: quartiles(b), Head: quartiles(h)}
	if s.Base.Median != 0 {
		s.Change = (s.Head.Median - s.Base.Median) / s.Base.Median
	}
	s.Wins, s.Losses, s.Ties = tally(b, h, m.Better)
	s.P = signTestP(s.Wins, s.Losses)
	a1, a2 := col("aa_base"), col("aa_copy")
	s.AABand = aaBand(quartiles(a1), quartiles(a2))
	w, l, _ := tally(a1, a2, m.Better)
	s.AAP = signTestP(w, l)
	s.Verdict = verdict(s, checksHold(runs["base"], runs["head"]))
	return s
}

// runArgv is the argv of one run: BENCHMARK.json's command, then the
// workload, its seed, and no tracing.
func runArgv(command []string, workload string, seed int64) []string {
	return append(slices.Clone(command), "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", "0")
}

// runOnce runs argv in dir and parses the benchmark's last output line.
func runOnce(dir string, argv []string) (run, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed check exits 1 and still prints its line
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		return run{}, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	r := run{Correct: rl.Correct && runErr == nil, Attempted: rl.Attempted, Failed: rl.Failed, Metrics: map[string]float64{}}
	for k, v := range rl.Metrics {
		r.Metrics[k] = v.Value
	}
	return r, nil
}

func resolve(repo, rev string) (string, error) {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "--short", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolve %s: %w", rev, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes rev's tree into dir from `git archive`. An export leaves
// nothing in the repository's .git, so an interrupted run needs no
// clean-up beyond its temporary directory.
func export(repo, rev, dir string) error {
	cmd := exec.Command("git", "-C", repo, "archive", "--format=tar", rev)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	untarErr := untar(pipe, dir)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, stderr.String())
	}
	return untarErr
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q escapes the export", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, os.FileMode(h.Mode)&0o777)
			if err != nil {
				return err
			}
			_, err = io.Copy(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s benchpair: "+format+"\n", append([]any{time.Now().Format("15:04:05")}, args...)...)
}
