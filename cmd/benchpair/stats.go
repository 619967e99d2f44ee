package main

import (
	"math"
	"sort"
)

// spread is the three quartiles of one side's runs of a metric.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// iqr is the distance between the quartiles.
func (s spread) iqr() float64 { return s.Q3 - s.Q1 }

// quartiles returns q1, the median and q3 of xs by linear interpolation
// between closest ranks (the R-7 / spreadsheet definition): the p-th
// quantile sits at position p·(n−1) of the sorted values. xs is not
// modified. An empty input reads zero.
func quartiles(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return spread{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// signTestP is the exact two-sided sign-test p-value for wins against
// losses (tied pairs carry no sign and are left out by the caller): twice
// the probability that a fair coin gives a split at least this lopsided,
// capped at 1.
func signTestP(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	// Sum C(n,i)/2^n for i ≤ k, building each term from the last so
	// that nothing overflows for the pair counts a host can afford.
	term, tail := math.Pow(0.5, float64(n)), 0.0
	for i := 0; i <= k; i++ {
		tail += term
		term *= float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail)
}

// headFirst reports whether pair i runs the change before the base.
// Pairs alternate, base first on pair 0, so that a host that drifts
// (warms up, throttles, fills its page cache) charges both sides alike.
func headFirst(i int) bool { return i%2 == 1 }

// tally counts the pairs in which head beats base under "better", the
// pairs it loses and the exact ties.
func tally(base, head []float64, better string) (wins, losses, ties int) {
	for i := range base {
		d := head[i] - base[i]
		if better == "higher" {
			d = -d
		}
		switch {
		case d < 0:
			wins++
		case d > 0:
			losses++
		default:
			ties++
		}
	}
	return wins, losses, ties
}

// Verdicts a metric can get.
const (
	verdictFailedChecks = "failed-checks" // the change's runs failed checks or operations
	verdictIdentical    = "identical"     // every pair read the same value
	verdictNoise        = "noise"         // too few pairs, not significant, or inside the A/A band
	verdictBetter       = "better"
	verdictWorse        = "worse"      // significant, inside the bound
	verdictOverBound    = "over-bound" // median worse than the bound allows
	significance        = 0.05         // sign-test level for better/worse
	minPairs            = 10           // pairs a better or worse verdict needs, and the pairs benchpair runs
)

// verdict judges a metric's change from its summary. A change whose runs
// do not all pass their checks, or that fails a larger share of
// operations than the base (checksOK false), is failed-checks: no metric
// of it counts. Otherwise a change counts as better or worse only when
// at least minPairs pairs were run, it is significant under the sign
// test, goes the same way in at least nine tenths of all pairs (ties
// count for neither side), and moves the median by more than the noise:
// the wider of the base's own distance between quartiles and the A/A
// control's band in the metric's units (see aaBand). The bound is
// BENCHMARK.json's relative bound: a median worse by more than it is
// reported as such whatever the sign test says, since that is what
// rejects a change.
func verdict(s metricSummary, checksOK bool) string {
	if !checksOK {
		return verdictFailedChecks
	}
	if s.Wins == 0 && s.Losses == 0 && s.Ties > 0 {
		return verdictIdentical
	}
	delta := s.Head.Median - s.Base.Median
	worse := delta > 0
	if s.Better == "higher" {
		worse = delta < 0
	}
	if worse && s.Bound > 0 && s.Base.Median != 0 && math.Abs(delta)/math.Abs(s.Base.Median) > s.Bound {
		return verdictOverBound
	}
	agree, n := s.Wins, s.Wins+s.Losses+s.Ties
	if worse {
		agree = s.Losses
	}
	if n < minPairs || s.P >= significance || 10*agree < 9*n || math.Abs(delta) <= max(s.AABand, s.Base.iqr()) {
		return verdictNoise
	}
	if worse {
		return verdictWorse
	}
	return verdictBetter
}

// checksHold reports whether every one of the change's runs passed its
// checks and the change failed no larger share of its operations than
// the base did.
func checksHold(base, head []run) bool {
	share := func(rs []run) float64 {
		var failed, attempted int64
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	for _, r := range head {
		if !r.Correct {
			return false
		}
	}
	return share(head) <= share(base)
}

// aaBand is how far two builds of the same source read apart on this
// host: the larger of the gap between the A/A control's two medians and
// either side's distance between quartiles.
func aaBand(a, b spread) float64 {
	return max(math.Abs(a.Median-b.Median), a.iqr(), b.iqr())
}
