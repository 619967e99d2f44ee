// Package diag implements automated diagnosis of sensing and actuation
// components — the maintainability gap §V-D calls out ("little work has
// been done on automated diagnosis of sensing and actuation components").
// Detectors watch observation streams for the classic field failure
// modes: stuck-at sensors, out-of-physical-range readings, and drift
// away from spatially correlated peers.
package diag

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// FaultType classifies a finding.
type FaultType int

// Detected fault classes.
const (
	FaultStuck FaultType = iota
	FaultRange
	FaultDrift
)

// String names the fault type.
func (f FaultType) String() string {
	switch f {
	case FaultStuck:
		return "stuck-at"
	case FaultRange:
		return "out-of-range"
	case FaultDrift:
		return "drift"
	default:
		return fmt.Sprintf("FaultType(%d)", int(f))
	}
}

// Finding is one diagnosis.
type Finding struct {
	Sensor string
	Type   FaultType
	At     time.Duration
	Detail string
}

// StuckDetector flags a sensor whose last Window readings are identical
// within Epsilon — dead transducers report a frozen value.
type StuckDetector struct {
	Window  int
	Epsilon float64

	history []float64
	flagged bool
}

// NewStuckDetector returns a detector with the given window (default 20)
// and epsilon (default 1e-9).
func NewStuckDetector(window int, epsilon float64) *StuckDetector {
	if window == 0 {
		window = 20
	}
	if epsilon == 0 {
		epsilon = 1e-9
	}
	return &StuckDetector{Window: window, Epsilon: epsilon}
}

// Observe feeds a reading; it returns true exactly when the fault is
// first detected.
func (d *StuckDetector) Observe(v float64) bool {
	d.history = append(d.history, v)
	if len(d.history) > d.Window {
		d.history = d.history[len(d.history)-d.Window:]
	}
	if len(d.history) < d.Window {
		return false
	}
	lo, hi := d.history[0], d.history[0]
	for _, x := range d.history {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	stuck := hi-lo <= d.Epsilon
	if stuck && !d.flagged {
		d.flagged = true
		return true
	}
	if !stuck {
		d.flagged = false
	}
	return false
}

// RangeDetector flags physically impossible readings.
type RangeDetector struct {
	Min, Max float64
}

// Observe reports whether v is outside the physical range.
func (d RangeDetector) Observe(v float64) bool {
	return v < d.Min || v > d.Max || math.IsNaN(v)
}

// DriftDetector compares a sensor against the median of its spatially
// correlated peers: persistent deviation beyond Threshold for Persist
// consecutive comparisons flags drift or miscalibration.
type DriftDetector struct {
	Threshold float64
	Persist   int

	run     int
	flagged bool
}

// NewDriftDetector returns a detector (defaults: threshold 3.0 units,
// persistence 10 samples).
func NewDriftDetector(threshold float64, persist int) *DriftDetector {
	if threshold == 0 {
		threshold = 3
	}
	if persist == 0 {
		persist = 10
	}
	return &DriftDetector{Threshold: threshold, Persist: persist}
}

// Observe feeds the sensor's value and its peers' values; it returns
// true exactly when drift is first detected.
func (d *DriftDetector) Observe(v float64, peers []float64) bool {
	if len(peers) == 0 {
		return false
	}
	med := median(peers)
	if math.Abs(v-med) > d.Threshold {
		d.run++
	} else {
		d.run = 0
		d.flagged = false
	}
	if d.run >= d.Persist && !d.flagged {
		d.flagged = true
		return true
	}
	return false
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return s[mid-1] + (s[mid]-s[mid-1])/2
}

// Engine runs the full detector suite over named sensor streams and
// collects findings.
type Engine struct {
	physMin, physMax float64
	stuck            map[string]*StuckDetector
	drift            map[string]*DriftDetector
	rangeFlagged     map[string]bool

	Findings []Finding
}

// NewEngine creates an engine with the given physical range for all
// sensors.
func NewEngine(physMin, physMax float64) *Engine {
	return &Engine{
		physMin:      physMin,
		physMax:      physMax,
		stuck:        make(map[string]*StuckDetector),
		drift:        make(map[string]*DriftDetector),
		rangeFlagged: make(map[string]bool),
	}
}

// Observe feeds one reading of sensor at time at, with the current
// readings of its peers.
func (e *Engine) Observe(sensor string, at time.Duration, v float64, peers []float64) {
	if (RangeDetector{Min: e.physMin, Max: e.physMax}).Observe(v) {
		if !e.rangeFlagged[sensor] {
			e.rangeFlagged[sensor] = true
			e.Findings = append(e.Findings, Finding{
				Sensor: sensor, Type: FaultRange, At: at,
				Detail: fmt.Sprintf("value %v outside [%v,%v]", v, e.physMin, e.physMax),
			})
		}
		return // out-of-range values would pollute the other detectors
	}
	e.rangeFlagged[sensor] = false
	sd, ok := e.stuck[sensor]
	if !ok {
		sd = NewStuckDetector(0, 0)
		e.stuck[sensor] = sd
	}
	if sd.Observe(v) {
		e.Findings = append(e.Findings, Finding{
			Sensor: sensor, Type: FaultStuck, At: at,
			Detail: fmt.Sprintf("last %d readings frozen at %v", sd.Window, v),
		})
	}
	dd, ok := e.drift[sensor]
	if !ok {
		dd = NewDriftDetector(0, 0)
		e.drift[sensor] = dd
	}
	if dd.Observe(v, peers) {
		e.Findings = append(e.Findings, Finding{
			Sensor: sensor, Type: FaultDrift, At: at,
			Detail: fmt.Sprintf("deviates >%v from peer median", dd.Threshold),
		})
	}
}
