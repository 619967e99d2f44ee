package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Kind distinguishes the metric kinds in a Snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	numKinds
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "?"
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return []byte(strconv.Quote(k.String())), nil }

// Point is one series in a Snapshot. Value holds the counter or gauge
// value; for histograms Value is the sample sum and Hist carries the
// full digest.
type Point struct {
	Name   string     `json:"name"`
	Labels []Label    `json:"labels,omitempty"`
	Kind   Kind       `json:"kind"`
	Value  float64    `json:"value"`
	Hist   *HistStats `json:"hist,omitempty"`
}

// Snapshot returns every series in the registry, sorted by kind then
// name then label set, so iteration order (and any report built from it)
// is deterministic. The registry lock is held only while collecting the
// series list; each metric's value is then read under its own lock, and
// the returned slice can be formatted with no lock at all.
func (r *Registry) Snapshot() []Point {
	type entry struct {
		key string
		p   Point
		m   reader
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.table))
	for key, s := range r.table {
		for kind, m := range s.m {
			if m != nil {
				entries = append(entries, entry{key, Point{Name: s.name, Labels: s.labels, Kind: Kind(kind)}, m})
			}
		}
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.p.Kind != b.p.Kind {
			return a.p.Kind < b.p.Kind
		}
		return a.key < b.key
	})

	points := make([]Point, len(entries))
	for i, e := range entries {
		points[i] = e.p
		points[i].Value, points[i].Hist = e.m.read()
	}
	return points
}

// promName sanitizes a dotted metric name into the Prometheus charset:
// dots and dashes become underscores.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

func promLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(l.Key))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
}

func promValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Counters and gauges emit one sample per series; histograms
// emit summary-style quantile samples plus _sum and _count. Output order
// follows Snapshot and is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	points := r.Snapshot()
	var b strings.Builder
	lastFamily := ""
	for _, p := range points {
		name := promName(p.Name)
		if name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, promKind(p.Kind))
			lastFamily = name
		}
		switch p.Kind {
		case KindHistogram:
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", p.Hist.P50}, {"0.9", p.Hist.P90}, {"0.99", p.Hist.P99}} {
				b.WriteString(name)
				promLabels(&b, p.Labels, Label{Key: "quantile", Value: q.q})
				b.WriteByte(' ')
				b.WriteString(promValue(q.v))
				b.WriteByte('\n')
			}
			b.WriteString(name + "_sum")
			promLabels(&b, p.Labels)
			b.WriteByte(' ')
			b.WriteString(promValue(p.Hist.Sum))
			b.WriteByte('\n')
			b.WriteString(name + "_count")
			promLabels(&b, p.Labels)
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(p.Hist.Count))
			b.WriteByte('\n')
		default:
			b.WriteString(name)
			promLabels(&b, p.Labels)
			b.WriteByte(' ')
			b.WriteString(promValue(p.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promKind(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}
