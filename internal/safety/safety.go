// Package safety implements the runtime safety monitor of §V-B: hard
// invariants whose violation is catastrophic, and *soft* (continuous)
// margins whose violation is a matter of degree — the paper's HVAC
// example, where comfort bands flex with occupancy and the provider's
// revenue couples to both violations and energy. The monitor accounts
// violation episodes, violation-time integrals, and severity so policies
// can be compared quantitatively (E8).
package safety

import (
	"fmt"
	"time"
)

// Band is an allowed range for a monitored quantity. Hard bounds define
// safety proper; the soft bounds inside them define comfort/quality.
type Band struct {
	HardLow, HardHigh float64
	SoftLow, SoftHigh float64
}

// Validate checks band consistency.
func (b Band) Validate() error {
	if b.HardLow > b.SoftLow || b.SoftLow > b.SoftHigh || b.SoftHigh > b.HardHigh {
		return fmt.Errorf("safety: inconsistent band %+v", b)
	}
	return nil
}

// ruleState tracks one monitored quantity.
type ruleState struct {
	band        Band
	bandSet     bool
	lastAt      time.Duration
	lastVal     float64
	hasVal      bool
	hardViol    int
	softViol    int
	inHard      bool
	inSoft      bool
	hardTime    time.Duration
	softTime    time.Duration
	softIntegal float64 // ∫ max(0, distance outside soft band) dt, in unit·seconds
}

// Violation is an episode report.
type Violation struct {
	Rule  string
	Hard  bool
	At    time.Duration
	Value float64
}

// Monitor evaluates streams of samples against bands.
type Monitor struct {
	rules map[string]*ruleState
	// OnViolation, if set, fires at each new violation episode.
	OnViolation func(v Violation)
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{rules: make(map[string]*ruleState)}
}

// SetBand installs (or replaces) the band for a rule. Bands may change at
// runtime — §V-B's point that soft margins vary with who occupies a space
// when.
func (m *Monitor) SetBand(rule string, b Band) error {
	if err := b.Validate(); err != nil {
		return err
	}
	st, ok := m.rules[rule]
	if !ok {
		st = &ruleState{}
		m.rules[rule] = st
	}
	st.band = b
	st.bandSet = true
	return nil
}

// Observe feeds one sample at time at. Violation time accrues between
// consecutive samples while outside a band.
func (m *Monitor) Observe(rule string, at time.Duration, value float64) {
	st, ok := m.rules[rule]
	if !ok || !st.bandSet {
		return
	}
	if st.hasVal {
		dt := at - st.lastAt
		if dt > 0 {
			if st.inHard {
				st.hardTime += dt
			}
			if st.inSoft {
				st.softTime += dt
				st.softIntegal += st.softDistance(st.lastVal) * dt.Seconds()
			}
		}
	}
	hard := value < st.band.HardLow || value > st.band.HardHigh
	soft := value < st.band.SoftLow || value > st.band.SoftHigh
	if hard && !st.inHard {
		st.hardViol++
		if m.OnViolation != nil {
			m.OnViolation(Violation{Rule: rule, Hard: true, At: at, Value: value})
		}
	}
	if soft && !st.inSoft {
		st.softViol++
		if m.OnViolation != nil {
			m.OnViolation(Violation{Rule: rule, Hard: false, At: at, Value: value})
		}
	}
	st.inHard, st.inSoft = hard, soft
	st.lastAt, st.lastVal, st.hasVal = at, value, true
}

func (st *ruleState) softDistance(v float64) float64 {
	switch {
	case v < st.band.SoftLow:
		return st.band.SoftLow - v
	case v > st.band.SoftHigh:
		return v - st.band.SoftHigh
	default:
		return 0
	}
}

// Report summarizes one rule.
type Report struct {
	Rule           string
	HardViolations int
	SoftViolations int
	HardTime       time.Duration
	SoftTime       time.Duration
	// SoftSeverity is ∫ distance-outside-soft-band dt (unit·seconds):
	// the continuous-safety quantity §V-B argues for.
	SoftSeverity float64
}

// ReportOf returns the accumulated report for a rule.
func (m *Monitor) ReportOf(rule string) Report {
	st, ok := m.rules[rule]
	if !ok {
		return Report{Rule: rule}
	}
	return Report{
		Rule:           rule,
		HardViolations: st.hardViol,
		SoftViolations: st.softViol,
		HardTime:       st.hardTime,
		SoftTime:       st.softTime,
		SoftSeverity:   st.softIntegal,
	}
}

// ComfortBand builds a temperature band around a setpoint: soft margin
// ±soft, hard margin ±hard.
func ComfortBand(setpoint, soft, hard float64) Band {
	return Band{
		HardLow:  setpoint - hard,
		HardHigh: setpoint + hard,
		SoftLow:  setpoint - soft,
		SoftHigh: setpoint + soft,
	}
}

// HardOnlyBand is a band whose soft bounds coincide with the hard ones
// (for unoccupied spaces where only physical limits matter).
func HardOnlyBand(hardLow, hardHigh float64) Band {
	return Band{
		HardLow:  hardLow,
		HardHigh: hardHigh,
		SoftLow:  hardLow,
		SoftHigh: hardHigh,
	}
}
