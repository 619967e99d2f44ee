// Package metrics provides the lightweight instrumentation primitives used
// throughout the emulation: counters, gauges, sample histograms, and an
// energy ledger for duty-cycled radio accounting.
//
// The simulation is single-threaded, but the CoAP/bus code also runs over
// real sockets, so all primitives are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. It is updated on the
// radio per-frame path (tx/rx/collision accounting), so it stores its
// float64 as atomic bits with a CAS add instead of taking a mutex: the
// single writer per kernel makes the CAS succeed on the first try.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by d, which must be non-negative.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: Counter.Add(%v) with negative delta", d))
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by d (which may be negative).
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram records individual observations and answers summary queries.
// It keeps all samples; simulation scales (≤ millions of observations) make
// this affordable and it keeps quantiles exact.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the sample mean, or 0 if empty. Empty histograms yield
// defined values (not NaN) so report formatting and JSON encoding never
// have to special-case missing data.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// rankLocked returns the nearest-rank q-quantile of the n > 0 samples,
// sorting them first; q outside [0, 1] clamps to the extremes.
func (h *Histogram) rankLocked(q float64) float64 {
	h.sortLocked()
	n := len(h.samples)
	return h.samples[max(0, min(n-1, int(math.Ceil(q*float64(n)))-1))]
}

// stddevLocked returns the population standard deviation of the n > 0
// samples, summed in sorted order so the low bits do not depend on the
// order of arrival.
func (h *Histogram) stddevLocked() float64 {
	h.sortLocked()
	n := float64(len(h.samples))
	mean := h.sum / n
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / n)
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank. An
// empty histogram returns 0; a single sample is every quantile.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.rankLocked(q)
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Stddev returns the population standard deviation, or 0 if empty.
func (h *Histogram) Stddev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.stddevLocked()
}

// HistStats is a point-in-time digest of a histogram, computed in one
// pass under the histogram's lock. All fields are defined (zero) for an
// empty histogram.
type HistStats struct {
	Count  int     `json:"count"`
	Sum    float64 `json:"sum"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Stats computes the digest under the lock and returns it by value, so
// callers format or encode it without holding any lock.
func (h *Histogram) Stats() HistStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return HistStats{}
	}
	return HistStats{
		Count:  n,
		Sum:    h.sum,
		Mean:   h.sum / float64(n),
		Min:    h.rankLocked(0),
		Max:    h.rankLocked(1),
		Stddev: h.stddevLocked(),
		P50:    h.rankLocked(0.5),
		P90:    h.rankLocked(0.9),
		P99:    h.rankLocked(0.99),
	}
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sum = 0
	h.sorted = true
	h.mu.Unlock()
}

// Label is one key=value dimension of a metric series. A metric name
// plus its sorted label set identifies a series; the same name with
// different labels (e.g. mac="csma" vs mac="lpl") yields independent
// series that exposition groups under one metric family.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label at an instrumentation site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey encodes name plus sorted labels into a unique map key.
// 0x1f/0x1e (ASCII unit/record separators) cannot appear in sane metric
// names or label values.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0x1e)
		sb.WriteString(l.Key)
		sb.WriteByte(0x1f)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// sortLabels returns labels sorted by key (copying only when needed) so
// CounterWith(n, a, b) and CounterWith(n, b, a) address the same series.
func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	if sort.SliceIsSorted(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key }) {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// reader is what the registry needs from a metric kind to snapshot it:
// its current value (for a histogram the sample sum, plus the digest).
type reader interface {
	read() (value float64, hist *HistStats)
}

func (c *Counter) read() (float64, *HistStats) { return c.Value(), nil }
func (g *Gauge) read() (float64, *HistStats)   { return g.Value(), nil }
func (h *Histogram) read() (float64, *HistStats) {
	st := h.Stats()
	return st.Sum, &st
}

// series is one name and label set, and the metrics it holds: at most
// one of each kind.
type series struct {
	name   string
	labels []Label // sorted by key
	m      [numKinds]reader
}

// Registry is a named collection of metric series. The zero value is
// ready to use. Lookups create series on demand so instrumentation sites
// never need registration boilerplate.
type Registry struct {
	mu    sync.Mutex
	table map[string]*series // by seriesKey
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup is the get-or-create behind every public lookup: M is the value
// type of kind's metrics, whose zero value is ready to use.
func lookup[M any, PM interface {
	*M
	reader
}](r *Registry, kind Kind, name string, labels []Label) PM {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.table[key]
	if s == nil {
		if r.table == nil {
			r.table = make(map[string]*series)
		}
		s = &series{name: name, labels: append([]Label(nil), labels...)}
		r.table[key] = s
	}
	if s.m[kind] == nil {
		s.m[kind] = PM(new(M))
	}
	return s.m[kind].(PM)
}

// Counter returns the unlabeled counter with the given name, creating it
// if needed.
func (r *Registry) Counter(name string) *Counter { return r.CounterWith(name) }

// CounterWith returns the counter series for name plus labels, creating
// it if needed. Label order does not matter.
func (r *Registry) CounterWith(name string, labels ...Label) *Counter {
	return lookup[Counter](r, KindCounter, name, labels)
}

// Gauge returns the unlabeled gauge with the given name, creating it if
// needed.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeWith(name) }

// GaugeWith returns the gauge series for name plus labels, creating it
// if needed.
func (r *Registry) GaugeWith(name string, labels ...Label) *Gauge {
	return lookup[Gauge](r, KindGauge, name, labels)
}

// Histogram returns the unlabeled histogram with the given name,
// creating it if needed.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramWith(name) }

// HistogramWith returns the histogram series for name plus labels,
// creating it if needed.
func (r *Registry) HistogramWith(name string, labels ...Label) *Histogram {
	return lookup[Histogram](r, KindHistogram, name, labels)
}

// CounterNames returns the sorted distinct names of all counter series.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var names []string
	for _, s := range r.table {
		if s.m[KindCounter] != nil && !seen[s.name] {
			seen[s.name] = true
			names = append(names, s.name)
		}
	}
	sort.Strings(names)
	return names
}
