// Command iiotbench runs the experiment suite (DESIGN.md §3) and prints
// each experiment's table — the reproduction's equivalent of regenerating
// the paper's figures. With -markdown it emits the EXPERIMENTS.md body;
// with -json it emits a machine-readable report including each table's
// kernel statistics and wall time. -parallel bounds the worker goroutines
// the trial runner fans out over; tables are byte-identical at every
// setting (the runner merges trial results in deterministic order).
//
// Observability hooks:
//
//	-events out.jsonl     enable the flight recorder and dump every
//	                      trial's event stream (deterministic JSONL)
//	-cpuprofile cpu.out   profile the suite itself (pprof)
//	-memprofile mem.out   heap profile on exit
//	-trace sched.out      runtime execution trace (go tool trace)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"iiotds/internal/exp"
	"iiotds/internal/trace"
)

// report is the -json output document.
type report struct {
	Scale       string      `json:"scale"`
	Parallel    int         `json:"parallel"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	WallSeconds float64     `json:"wall_seconds"`
	Experiments []expResult `json:"experiments"`
}

type expResult struct {
	*exp.Table
	WallSeconds float64 `json:"wall_seconds"`
}

func main() { os.Exit(run()) }

func run() int {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E5,E9); empty = all")
	markdown := flag.Bool("markdown", false, "emit markdown (EXPERIMENTS.md body) instead of tables")
	jsonOut := flag.Bool("json", false, "emit a JSON report (tables + kernel stats + wall times)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "trial worker goroutines per experiment (<=1 = sequential)")
	shards := flag.Int("shards", 0, "worker threads the sharded experiments (E15) fan one deployment's stripes across (<=0 = one per stripe); tables are byte-identical at every setting")
	events := flag.String("events", "", "enable the flight recorder and write every trial's events (JSONL) to this file")
	eventsCap := flag.Int("events-capacity", 1<<16, "flight-recorder ring capacity per trial (giving it explicitly turns recording on even without -events)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	scale := exp.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "iiotbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		return 2
	}

	exp.SetParallelism(*parallel)
	exp.SetShardWorkers(*shards)

	var runners []exp.Runner
	if *only == "" {
		runners = exp.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			r, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "iiotbench: unknown experiment %q\n", strings.TrimSpace(id))
				return 2
			}
			runners = append(runners, r)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			}
		}()
	}

	capSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "events-capacity" {
			capSet = true
		}
	})
	if capSet {
		// Record without exporting: the configuration the overhead
		// benchmark uses to isolate the cost of emission itself.
		trace.SetDefaultCapacity(*eventsCap)
	}

	// curID labels the trace sink's output with the experiment being run;
	// the sink itself runs on this goroutine (the runner drains recorders
	// after its workers have joined), so plain variables are safe.
	var curID string
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		trace.SetDefaultCapacity(*eventsCap)
		exp.SetTraceSink(func(i int, rec *trace.Recorder) {
			fmt.Fprintf(bw, "{\"experiment\":%q,\"trial\":%d,\"events\":%d,\"dropped\":%d}\n",
				curID, i, rec.Total(), rec.Dropped())
			if err := rec.WriteJSONL(bw, trace.All()); err != nil {
				fmt.Fprintf(os.Stderr, "iiotbench: writing %s: %v\n", *events, err)
			}
		})
		defer exp.SetTraceSink(nil)
	}

	rep := report{Scale: *scaleFlag, Parallel: exp.Parallelism(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	start := time.Now()
	for _, r := range runners {
		curID = r.ID
		t0 := time.Now()
		table := r.Run(scale)
		wall := time.Since(t0).Seconds()
		rep.Experiments = append(rep.Experiments, expResult{Table: table, WallSeconds: wall})
		switch {
		case *jsonOut:
			// Collected; emitted once at the end.
		case *markdown:
			fmt.Println(table.Markdown())
		default:
			fmt.Println(table.String())
			fmt.Printf("(wall time %.1fs)\n\n", wall)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "iiotbench: %v\n", err)
			return 1
		}
		return 0
	}
	if !*markdown {
		fmt.Printf("ran %d experiments at scale=%s parallel=%d in %.1fs\n",
			len(rep.Experiments), *scaleFlag, exp.Parallelism(), rep.WallSeconds)
	}
	return 0
}
