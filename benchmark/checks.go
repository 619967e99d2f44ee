package main

import (
	"fmt"
	"sort"
	"time"

	"iiotds/internal/store"
)

// The correctness checks, as pure functions of what was expected and
// what was observed, so bench_test.go can show each one firing on a
// deliberately wrong expectation.

// exactDiffs lists the keys on which two repeats of a virtual-time
// workload disagree. Two same-seed repeats must produce none.
func exactDiffs(a, b map[string]float64) []string {
	var diffs []string
	for k, av := range a {
		if bv, ok := b[k]; !ok || bv != av {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, av, bv))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, k+" only in the second repeat")
		}
	}
	sort.Strings(diffs)
	return diffs
}

// ackedPointsDiff compares the points Range returned for one series
// against the acked readings (sample time -> delivered value).
func ackedPointsDiff(want map[time.Duration]float64, got []store.Point) (missing, mismatched, extra int) {
	seen := 0
	for _, p := range got {
		v, ok := want[p.T]
		switch {
		case !ok:
			extra++
		case v != p.V:
			mismatched++
		default:
			seen++
		}
	}
	return len(want) - seen - mismatched, mismatched, extra
}

// missingNotifications counts, over the observers that were never
// re-registered, the notifications each failed to see. A resource's
// rounds are the most any of its observers saw; every stable observer
// of that resource must have seen as many.
func missingNotifications(seen []uint32, churned []bool, resources int) (missing, stable, rounds int64) {
	pushes := make([]uint32, resources)
	for i, n := range seen {
		if n > pushes[i%resources] {
			pushes[i%resources] = n
		}
	}
	for _, p := range pushes {
		rounds += int64(p)
	}
	for i, n := range seen {
		if churned[i] {
			continue
		}
		stable++
		missing += int64(pushes[i%resources] - n)
	}
	return missing, stable, rounds
}

// seriesHolds reports whether a series read back equals the points the
// input generator says it was sent, in time order.
func seriesHolds(sent, got []store.Point) bool {
	want := append([]store.Point(nil), sent...)
	sort.SliceStable(want, func(a, b int) bool { return want[a].T < want[b].T })
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
