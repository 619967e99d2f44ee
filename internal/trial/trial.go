// Package trial is the deterministic parallel trial runner shared by
// the experiment harnesses (internal/exp) and the scenario property
// harness (internal/scenario). Trials (distinct seeds / parameter
// points) are mutually independent: each trial builds its own
// sim.Kernel and touches no state outside it. RunTrials fans those
// trials across worker goroutines and merges results in trial-index
// order, so anything built from the merged slice is byte-identical to a
// sequential run — the determinism rule of DESIGN.md §5 survives the
// parallelism.
package trial

import (
	"runtime"
	"sync"
	"sync/atomic"

	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// parallelism is the worker count used by RunTrials; 0 means GOMAXPROCS.
var parallelism atomic.Int32

// SetParallelism sets the number of worker goroutines RunTrials fans
// trials across. n <= 0 resets to the default (GOMAXPROCS). The setting
// never affects results, only wall-clock time.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Trial is the context handed to one trial function. It is owned by a
// single worker goroutine for the duration of the trial.
type Trial struct {
	// Index is the trial's position in the sweep; results are merged in
	// Index order.
	Index int

	kernels   []*sim.Kernel
	recorders []*trace.Recorder
}

// Observe registers kernels whose scheduling counters should be folded
// into the sweep's RunStats. Call it right after building the kernel (or
// deployment); the counters are read when the trial function returns.
// Safe on a nil Trial so shared helpers can also run outside a sweep.
func (t *Trial) Observe(ks ...*sim.Kernel) {
	if t == nil {
		return
	}
	t.kernels = append(t.kernels, ks...)
}

// ObserveTrace registers a flight recorder whose event summary should be
// folded into the sweep's RunStats (and handed to the trace sink, if
// set). nil recorders are accepted and ignored, so call sites do not
// need to gate on tracing being enabled. Safe on a nil Trial.
func (t *Trial) ObserveTrace(rec *trace.Recorder) {
	if t == nil || rec == nil {
		return
	}
	t.recorders = append(t.recorders, rec)
}

// ObserveMedium attaches a flight recorder to a hand-built radio medium
// and registers it with the trial, sized by trace.DefaultCapacity().
// Experiments that assemble their own stack (rather than going through
// core.NewStack) call this right after radio.NewMedium so their
// MAC/radio events land in the sweep's trace summary. Returns nil — and
// records nothing — when tracing is disabled, so the emit fast paths
// stay allocation-free.
func (t *Trial) ObserveMedium(k *sim.Kernel, m *radio.Medium) *trace.Recorder {
	c := trace.DefaultCapacity()
	if c <= 0 {
		return nil
	}
	rec := trace.New(c, k.Now)
	m.SetRecorder(rec)
	t.ObserveTrace(rec)
	return rec
}

// RunStats aggregates the kernel counters of a sweep: events
// scheduled/fired/canceled and pool reuse summed across trials, heap
// depth as the per-trial high-water mark, plus the merged trace summary
// of every recorder the trials observed.
type RunStats struct {
	// Trials is the number of trials merged.
	Trials int `json:"trials"`
	// Events aggregates sim.Kernel.Stats across all observed kernels.
	Events sim.Stats `json:"events"`
	// Trace is the merged trace.Summary of all observed recorders,
	// folded in trial-index order (the merge is associative, so the
	// result is identical at any parallelism level).
	Trace trace.Summary `json:"trace"`
}

// traceSink, when set, receives every observed recorder during the
// merge phase of RunTrials, in (trial index, registration order). It
// runs on the caller's goroutine after all workers have drained, so the
// sink may export full event streams (e.g. JSONL) deterministically.
var traceSink func(trialIndex int, rec *trace.Recorder)

// SetTraceSink installs fn as the recorder drain for subsequent
// RunTrials calls; nil removes it. Not safe to change concurrently with
// a running sweep.
func SetTraceSink(fn func(trialIndex int, rec *trace.Recorder)) { traceSink = fn }

// RunTrials runs fn for trial indices 0..n-1 across Parallelism() worker
// goroutines and returns the results in index order, plus the aggregated
// kernel stats of every kernel the trials observed. fn must confine
// itself to state reachable from its own trial — that independence is
// what lets the fan-out preserve determinism. A panic inside any trial is
// re-raised (lowest trial index first) after all workers have drained.
func RunTrials[R any](n int, fn func(t *Trial) R) ([]R, RunStats) {
	results := make([]R, n)
	trials := make([]*Trial, n)
	panics := make([]any, n)

	runOne := func(i int) {
		t := &Trial{Index: i}
		trials[i] = t
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		results[i] = fn(t)
	}

	if workers := min(Parallelism(), n); workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}

	agg := RunStats{Trials: n}
	for i, t := range trials {
		if p := panics[i]; p != nil {
			panic(p)
		}
		if t == nil {
			continue
		}
		for _, k := range t.kernels {
			agg.Events.Add(k.Stats())
		}
		for _, rec := range t.recorders {
			agg.Trace.Add(rec.Summary())
			if traceSink != nil {
				traceSink(i, rec)
			}
		}
	}
	return results, agg
}

// Sweep runs fn once per parameter point and returns the results in
// point order. It is RunTrials with the parameter threading done for you:
// the canonical shape of every experiment's sweep loop.
func Sweep[P, R any](points []P, fn func(t *Trial, p P) R) ([]R, RunStats) {
	return RunTrials(len(points), func(t *Trial) R {
		return fn(t, points[t.Index])
	})
}
