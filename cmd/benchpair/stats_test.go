package main

import (
	"math"
	"testing"
)

func TestSignTestExact(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},     // 0.00195
		{0, 10, 2.0 / 1024},     // symmetric
		{9, 1, 2.0 * 11 / 1024}, // 0.0215: C(10,0)+C(10,1)
		{8, 2, 2.0 * 56 / 1024}, // 0.109: 1+10+45
		{5, 5, 1},               // capped
		{0, 0, 1},               // every pair tied
		{6, 0, 2.0 / 64},        // 0.03125
		{20, 0, 2 * math.Pow(2, -20)},
	} {
		if got := signTestP(c.wins, c.losses); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.wins, c.losses, got, c.want)
		}
	}
	if p := signTestP(9, 1); p >= 0.05 {
		t.Errorf("9 of 10 must be significant at 0.05, p = %v", p)
	}
}

func TestQuartilesKnownInputs(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want spread
	}{
		{[]float64{4, 1, 3, 2}, spread{1.75, 2.5, 3.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, spread{3.25, 5.5, 7.75}},
		{[]float64{7, 1, 3, 5, 9}, spread{3, 5, 7}},
		{[]float64{42}, spread{42, 42, 42}},
		{nil, spread{}},
	} {
		in := append([]float64(nil), c.in...)
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %+v, want %+v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("quartiles reordered its input: %v", c.in)
			}
		}
	}
}

func TestPairsAlternate(t *testing.T) {
	first := 0
	for i := 0; i < 10; i++ {
		if headFirst(i) == headFirst(i+1) {
			t.Fatalf("pairs %d and %d start with the same side", i, i+1)
		}
		if headFirst(i) {
			first++
		}
	}
	if headFirst(0) || first != 5 {
		t.Fatalf("pair 0 must start with the base and each side lead half the pairs (head led %d of 10)", first)
	}
}

func TestVerdict(t *testing.T) {
	base := spread{Q1: 36, Median: 37, Q3: 38}
	cases := []struct {
		name               string
		head               spread
		wins, losses, ties int
		band, bound        float64
		better             string
		checksOK           bool
		want               string
	}{
		{"clear gain", spread{31, 32, 33}, 10, 0, 0, 1.5, 0.25, "lower", true, verdictBetter},
		{"clear gain, failed checks", spread{31, 32, 33}, 10, 0, 0, 1.5, 0.25, "lower", false, verdictFailedChecks},
		{"six of six, too few pairs", spread{31, 32, 33}, 6, 0, 0, 1.5, 0.25, "lower", true, verdictNoise},
		{"nine pairs, too few", spread{31, 32, 33}, 9, 0, 0, 1.5, 0.25, "lower", true, verdictNoise},
		{"inside the A/A band", spread{35.5, 36, 36.5}, 10, 0, 0, 1.5, 0.25, "lower", true, verdictNoise},
		{"not significant", spread{31, 32, 33}, 8, 2, 0, 1.5, 0.25, "lower", true, verdictNoise},
		{"significant, under nine tenths", spread{31, 32, 33}, 17, 3, 0, 1.5, 0.25, "lower", true, verdictNoise},
		{"nine tenths of twenty", spread{31, 32, 33}, 18, 2, 0, 1.5, 0.25, "lower", true, verdictBetter},
		{"inside the base's own spread", spread{35, 35.5, 36}, 10, 0, 0, 0, 0.25, "lower", true, verdictNoise},
		{"significant loss", spread{39, 40, 41}, 0, 10, 0, 1.5, 0.25, "lower", true, verdictWorse},
		{"past the bound", spread{49, 50, 51}, 4, 6, 0, 1.5, 0.25, "lower", true, verdictOverBound},
		{"higher is better", spread{39, 40, 41}, 10, 0, 0, 1.5, 0.25, "higher", true, verdictBetter},
		{"all tied", base, 0, 0, 10, 0, 0.06, "higher", true, verdictIdentical},
	}
	for _, c := range cases {
		s := metricSummary{Better: c.better, Bound: c.bound, Base: base, Head: c.head,
			Wins: c.wins, Losses: c.losses, Ties: c.ties, P: signTestP(c.wins, c.losses), AABand: c.band}
		if got := verdict(s, c.checksOK); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if w, l, ti := tally([]float64{1, 2, 3}, []float64{0, 2, 4}, "lower"); w != 1 || l != 1 || ti != 1 {
		t.Errorf("tally lower = %d/%d/%d, want 1/1/1", w, l, ti)
	}
	if w, l, _ := tally([]float64{1, 2}, []float64{2, 1}, "higher"); w != 1 || l != 1 {
		t.Errorf("tally higher = %d/%d, want 1/1", w, l)
	}
	if b := aaBand(spread{1, 2, 4}, spread{2, 2.5, 3}); b != 3 {
		t.Errorf("aaBand = %v, want the wider IQR, 3", b)
	}
}

func TestChecksHold(t *testing.T) {
	ok := func(attempted, failed int64) run { return run{Correct: true, Attempted: attempted, Failed: failed} }
	for _, c := range []struct {
		name       string
		base, head []run
		want       bool
	}{
		{"clean on both sides", []run{ok(100, 0), ok(100, 0)}, []run{ok(100, 0), ok(100, 0)}, true},
		{"same failed share", []run{ok(100, 2), ok(100, 0)}, []run{ok(200, 1), ok(200, 1)}, true},
		{"one head run fails its checks", []run{ok(100, 0)}, []run{ok(100, 0), {Attempted: 100}}, false},
		{"head fails a larger share", []run{ok(100, 1), ok(100, 1)}, []run{ok(100, 2), ok(100, 1)}, false},
		{"a failed base run is the base's problem", []run{{Attempted: 100, Failed: 9}}, []run{ok(100, 0)}, true},
	} {
		if got := checksHold(c.base, c.head); got != c.want {
			t.Errorf("%s: checksHold = %v, want %v", c.name, got, c.want)
		}
	}
}
