package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outDir receives the traced run's artifacts (spans JSONL, CPU
// profile). It is relative to the working directory — the checkout
// root — so the benchmark never writes outside its checkout.
const outDir = ".bench_out"

// options is one workload invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase the sizes are scaled to
	trace    bool
	smoke    bool // tiny plant sizes (bench_test.go); -seconds still applies
}

// scale is seconds relative to the recorded run length: every
// fixed-work horizon (virtual minutes, tick counts, step lengths) is
// the recorded size times this factor, so `-seconds` keeps its meaning
// on fixed-work workloads without ever looking at the host.
func (o options) scale() float64 { return o.seconds / runSeconds }

// check is one correctness assertion evaluated by a workload.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what a workload hands back to main.
type result struct {
	attempted int64
	failed    int64
	e2e       map[string]float64 // native end-to-end metrics
	layer     map[string]float64 // native per-layer metrics
	phaseWall float64            // measured-phase wall seconds
	checks    []check
	notes     []string
	sizes     any // the workload's recorded size struct
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// --- process accounting ---

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark
// (ru_maxrss, kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is a runtime snapshot taken at phase boundaries only
// (ReadMemStats stops the world).
type goStats struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// phaseCost accumulates wall, CPU and runtime deltas over one or more
// measured phases.
type phaseCost struct {
	wall, cpu float64
	mallocs   uint64
	gcs       uint32
	pauseNs   uint64

	t0   time.Time
	cpu0 float64
	g0   goStats
}

func (p *phaseCost) start() {
	p.g0 = readGoStats()
	p.cpu0 = cpuSeconds()
	p.t0 = time.Now()
}

func (p *phaseCost) stop() {
	p.wall += time.Since(p.t0).Seconds()
	p.cpu += cpuSeconds() - p.cpu0
	g := readGoStats()
	p.mallocs += g.mallocs - p.g0.mallocs
	p.gcs += g.gcs - p.g0.gcs
	p.pauseNs += g.pauseNs - p.g0.pauseNs
}

// add folds another measured phase's totals into p.
func (p *phaseCost) add(q phaseCost) {
	p.wall += q.wall
	p.cpu += q.cpu
	p.mallocs += q.mallocs
	p.gcs += q.gcs
	p.pauseNs += q.pauseNs
}

func (p *phaseCost) emit(r *result) {
	r.e2e["cpu_s"] = p.cpu
	r.phaseWall = p.wall
	r.layer["go.gc_pause_ms"] = float64(p.pauseNs) / 1e6
	r.layer["go.gc_cycles"] = float64(p.gcs)
}

// --- percentiles ---

// percentile returns the p-th percentile (nearest rank) of sorted
// values; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the 50th percentile of unsorted values.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// durMS converts a duration to milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// latHist is a concurrent log-linear latency histogram (nanoseconds):
// 32 sub-buckets per power of two, so a percentile read from it is
// within ~3 % of the exact sample before in-bucket interpolation. The
// gateway fan-out records millions of samples per second from many
// goroutines; a slab of exact samples would cost more than the code
// under test.
type latHist struct {
	counts [64 * histSub]atomic.Int64
	n      atomic.Int64
}

const histSub = 32

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns)) // floor(log2 ns) >= 5
	sub := int(ns>>(uint(exp)-5)) & (histSub - 1)
	return (exp-4)*histSub + sub
}

// histBounds returns the [lo, hi) nanosecond range of bucket b.
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub + 4
	sub := b % histSub
	width := math.Ldexp(1, exp-5)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *latHist) observe(ns int64) {
	h.counts[histBucket(ns)].Add(1)
	h.n.Add(1)
}

func (h *latHist) count() int64 { return h.n.Load() }

// quantileNs returns the p-th percentile in nanoseconds, interpolated
// inside the bucket that holds it.
func (h *latHist) quantileNs(p float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := p / 100 * float64(total)
	var cum float64
	for b := range h.counts {
		c := float64(h.counts[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(target-cum)/c
		}
		cum += c
	}
	lo, _ := histBounds(len(h.counts) - 1)
	return lo
}

// --- spans ---

// span is one benchmark-side interval around a call into a layer.
// Spans of one reading/publish/tick share ID; Parent indexes the span
// that caused this one (-1 for roots).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanLog keeps spans in memory until the run ends. A disabled log
// (the timed run) costs one branch per call site.
type spanLog struct {
	on bool
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

func (l *spanLog) begin(name string, id uint64, parent int32) int32 {
	if !l.on {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.s = append(l.s, span{ID: id, Name: name, Start: now, Parent: parent})
	i := int32(len(l.s) - 1)
	l.mu.Unlock()
	return i
}

func (l *spanLog) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.s[i].End = now
	l.mu.Unlock()
}

// spanStat aggregates one span name.
type spanStat struct {
	Name  string
	Count int
	Total int64 // ns
	Self  int64 // ns: total minus the part child spans cover
}

// stats folds the log per name. A span's self time is its duration
// minus its direct children's durations.
func (l *spanLog) stats() map[string]*spanStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.s))
	for _, s := range l.s {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for i, s := range l.s {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += max(d-child[i], 0)
	}
	return out
}

// selfMean returns the mean self time of the named span in ns.
func selfMean(stats map[string]*spanStat, name string) float64 {
	st := stats[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.Self) / float64(st.Count)
}

// summary renders the per-name totals, largest self time first.
func (l *spanLog) summary() string {
	var all []*spanStat
	for _, st := range l.stats() {
		all = append(all, st)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Self > all[j].Self })
	var sb strings.Builder
	sb.WriteString("span self time:")
	for _, st := range all {
		fmt.Fprintf(&sb, " %s x%d %.1fms (total %.1fms);", st.Name, st.Count, float64(st.Self)/1e6, float64(st.Total)/1e6)
	}
	return sb.String()
}

// write dumps the spans as JSONL and returns the path.
func (l *spanLog) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.s {
		if err := enc.Encode(&l.s[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanCostNs measures what one begin/end pair costs on this host, so a
// real-time workload can state its span overhead as a share of its CPU.
func spanCostNs() float64 {
	l := newSpanLog(true)
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.end(l.begin("calibrate", uint64(i), -1))
	}
	return float64(time.Since(t0)) / n
}

// --- CPU profile bucketed by leaf-frame package ---

// cpuProfile wraps runtime/pprof so a traced run can attribute host
// time to layers: work inside kernel events is not reachable by timing
// calls from outside, but every sample's leaf frame names its package.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func (p *cpuProfile) start() {
	if err := pprof.StartCPUProfile(&p.buf); err == nil {
		p.on = true
	}
}

// stop ends profiling, stores the raw profile under outDir, and returns
// each package's share of all samples (by leaf frame).
func (p *cpuProfile) stop(workload string) (map[string]float64, error) {
	if !p.on {
		return nil, fmt.Errorf("cpu profile was not running")
	}
	pprof.StopCPUProfile()
	p.on = false
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		_ = os.WriteFile(filepath.Join(outDir, workload+".cpu.pprof"), p.buf.Bytes(), 0o644)
	}
	zr, err := gzip.NewReader(bytes.NewReader(p.buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return leafPackageShares(raw)
}

// pbField is one decoded protobuf field: a varint value or a
// length-delimited body.
type pbField struct {
	num  int
	wire int
	v    uint64
	body []byte
}

// pbFields decodes the top-level fields of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, fmt.Errorf("pprof: bad varint")
			}
			f.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("pprof: short bytes field")
			}
			f.body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated reads a repeated integer field that may arrive packed
// (one body) or unpacked (one varint per field).
func pbRepeated(f pbField, dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.v)
	}
	b := f.body
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

// leafPackageShares decodes a pprof Profile message (profile.proto)
// far enough to bucket every sample by the package of its leaf frame.
func leafPackageShares(raw []byte) (map[string]float64, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		loc uint64
		n   uint64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.body))
		case 5: // Function
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 4: // Location: line[0] is the innermost (possibly inlined) frame
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, x := range fs {
				switch {
				case x.num == 1:
					id = x.v
				case x.num == 4 && !seenLine:
					seenLine = true
					ls, err := pbFields(x.body)
					if err != nil {
						return nil, err
					}
					for _, y := range ls {
						if y.num == 1 {
							fn = y.v
						}
					}
				}
			}
			locFunc[id] = fn
		case 2: // Sample
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					locs = pbRepeated(x, locs)
				case 2:
					vals = pbRepeated(x, vals)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], n: vals[0]})
			}
		}
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.loc]]; int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[packageOf(name)] += float64(s.n)
		total += float64(s.n)
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// packageOf maps a symbol such as "iiotds/internal/sim.(*Kernel).Step"
// to its bucket: the layer name for this repo's packages, "runtime" for
// the Go runtime, "other" for the rest.
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := symbol[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "iiotds/internal/"):
		return strings.TrimPrefix(pkg, "iiotds/internal/")
	case pkg == "iiotds/benchmark" || pkg == "main":
		return "benchmark"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// emitCPUShares copies the traced run's per-package shares into the
// layer metrics that name them.
func emitCPUShares(layer map[string]float64, shares map[string]float64) {
	for _, l := range []string{"radio", "mac", "link", "lowpan", "netbuf", "rpl", "coap"} {
		layer[l+".cpu_share"] = shares[l]
	}
	layer["go.runtime_cpu_share"] = shares["runtime"]
}
