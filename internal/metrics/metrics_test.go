package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value() = %v, want 3.5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %v, want 7", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	st := h.Stats()
	if st.Count != 5 || st.Sum != 15 || st.Mean != 3 {
		t.Fatalf("Count/Sum/Mean = %d/%v/%v", st.Count, st.Sum, st.Mean)
	}
	if st.Min != 1 || st.Max != 5 {
		t.Fatalf("Min/Max = %v/%v", st.Min, st.Max)
	}
	if st.P50 != 3 || st.P99 != 5 {
		t.Fatalf("median/p99 = %v/%v, want 3/5", st.P50, st.P99)
	}
	// Observing after a digest must keep results correct.
	h.Observe(0)
	if got := h.Stats().Min; got != 0 {
		t.Fatalf("Min after new observation = %v, want 0", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	// An empty digest must be defined (zero), never NaN, so reports and
	// JSON encoders need no special-casing.
	if st := h.Stats(); st != (HistStats{}) {
		t.Errorf("empty histogram Stats = %+v, want zero", st)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7)
	st := h.Stats()
	if st.Count != 1 || st.Mean != 7 || st.Min != 7 || st.Max != 7 ||
		st.P50 != 7 || st.P90 != 7 || st.P99 != 7 || st.Stddev != 0 {
		t.Errorf("single-sample Stats = %+v", st)
	}
}

func TestHistogramStddev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if got := h.Stats().Stddev; math.Abs(got-2) > 1e-12 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
}

func TestHistogramQuantileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Observe(v)
		}
		st := h.Stats()
		if st.Count == 0 {
			return true
		}
		// The quantiles are monotone and within [min, max].
		return st.Min <= st.P50 && st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Stats agrees, bit for bit, with each field computed on its own from
// the samples (count, sum in arrival order, nearest rank and standard
// deviation over the sorted samples), whatever order the samples
// arrived in and whether or not a digest was taken before.
func TestStatsAgreesWithAccessors(t *testing.T) {
	f := func(vals []float64, statsFirst bool) bool {
		var h Histogram
		var kept []float64
		sum := 0.0
		for _, v := range vals {
			if !math.IsNaN(v) {
				h.Observe(v)
				kept = append(kept, v)
				sum += v
			}
		}
		if statsFirst {
			h.Stats()
		}
		st := h.Stats()
		n := len(kept)
		if n == 0 {
			return st == (HistStats{})
		}
		sorted := append([]float64(nil), kept...)
		sort.Float64s(sorted)
		rank := func(q float64) float64 { return sorted[max(0, min(n-1, int(math.Ceil(q*float64(n)))-1))] }
		mean := sum / float64(n)
		ss := 0.0
		for _, v := range sorted {
			ss += (v - mean) * (v - mean)
		}
		acc := HistStats{
			Count: n, Sum: sum, Mean: mean, Min: sorted[0], Max: sorted[n-1], Stddev: math.Sqrt(ss / float64(n)),
			P50: rank(0.5), P90: rank(0.9), P99: rank(0.99),
		}
		// Compare bits: sums of huge samples overflow to ±Inf and
		// then NaN, identically on both sides.
		same := st.Count == acc.Count
		for _, p := range [][2]float64{
			{st.Sum, acc.Sum}, {st.Mean, acc.Mean}, {st.Min, acc.Min}, {st.Max, acc.Max},
			{st.Stddev, acc.Stddev}, {st.P50, acc.P50}, {st.P90, acc.P90}, {st.P99, acc.P99},
		} {
			same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
		}
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if got := r.Counter("a").Value(); got != 1 {
		t.Fatalf("counter not shared: %v", got)
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not shared")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram not shared")
	}
}

func TestConcurrentCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value() = %v, want 8000", got)
	}
}

func TestEnergyLedger(t *testing.T) {
	p := PowerProfile{Sleep: 1, Listen: 2, Rx: 3, Tx: 4, CPU: 5}
	l := NewEnergyLedger(p)
	l.Spend(StateSleep, time.Second)
	l.Spend(StateListen, time.Second)
	l.Spend(StateRx, 2*time.Second)
	l.Spend(StateTx, time.Second)
	if got := l.Joules(StateRx); got != 6 {
		t.Fatalf("Rx joules = %v, want 6", got)
	}
	if got := l.TotalJoules(); got != 1+2+6+4 {
		t.Fatalf("TotalJoules() = %v, want 13", got)
	}
	if got := l.RadioOn(); got != 4*time.Second {
		t.Fatalf("RadioOn() = %v, want 4s", got)
	}
	if got := l.Duration(StateSleep); got != time.Second {
		t.Fatalf("Duration(sleep) = %v", got)
	}
}

// TestEnergyLedgerAddsLinkedAirtime: a linked tally's receive and
// transmit time reads as the ledger's own, beside what Spend charged.
func TestEnergyLedgerAddsLinkedAirtime(t *testing.T) {
	l := NewEnergyLedger(PowerProfile{Listen: 2, Rx: 3, Tx: 4})
	var air Airtime
	l.Link(&air)
	l.Spend(StateRx, time.Second)
	air.Rx += 2 * time.Second
	air.Tx += time.Second
	if got := l.Duration(StateRx); got != 3*time.Second {
		t.Fatalf("Duration(rx) = %v, want 3s", got)
	}
	if got := l.Duration(StateListen); got != 0 {
		t.Fatalf("Duration(listen) = %v, want 0", got)
	}
	if got := l.TotalJoules(); got != 3*3+4 {
		t.Fatalf("TotalJoules() = %v, want 13", got)
	}
}

func TestEnergyLedgerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEnergyLedger(DefaultPowerProfile()).Spend(StateTx, -time.Second)
}

func TestDefaultProfileOrdering(t *testing.T) {
	p := DefaultPowerProfile()
	if !(p.Sleep < p.CPU && p.CPU < p.Tx && p.Tx < p.Rx) {
		t.Fatalf("power profile ordering unrealistic: %+v", p)
	}
}

func TestEnergySet(t *testing.T) {
	s := NewEnergySet(PowerProfile{Tx: 1})
	s.Ledger(1).Spend(StateTx, time.Second)
	s.Ledger(2).Spend(StateTx, 3*time.Second)
	s.Ledger(3).Spend(StateTx, 2*time.Second)
	id, j := s.MaxTotalJoules()
	if id != 2 || j != 3 {
		t.Fatalf("MaxTotalJoules() = (%d, %v), want (2, 3)", id, j)
	}
	if got := s.MeanTotalJoules(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MeanTotalJoules() = %v, want 2", got)
	}
	if s.Ledger(1) != s.Ledger(1) {
		t.Fatal("ledger identity not stable")
	}
}

// A float summed in map order differs in its low bits from run to run;
// with magnitudes spread over twelve decades nearly every order rounds
// differently.
func TestMeanTotalJoulesOrderIndependent(t *testing.T) {
	s := NewEnergySet(PowerProfile{Tx: 1})
	for i := 0; i < 1000; i++ {
		d := time.Duration(float64(time.Microsecond) * math.Pow(10, float64(i%13)) * (1 + float64(i)/977))
		s.Ledger(i*7919%1009).Spend(StateTx, d)
	}
	want := s.MeanTotalJoules()
	for i := 0; i < 50; i++ {
		if got := s.MeanTotalJoules(); got != want {
			t.Fatalf("call %d: mean %v (bits %x), first call %v (bits %x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestEnergySetEmpty(t *testing.T) {
	s := NewEnergySet(DefaultPowerProfile())
	if got := s.MeanTotalJoules(); got != 0 {
		t.Fatalf("MeanTotalJoules() = %v, want 0", got)
	}
}
