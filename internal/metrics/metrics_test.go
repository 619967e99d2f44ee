package metrics

import (
	"math"
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
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %v, want 7", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("Sum() = %v", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean() = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := h.Quantile(0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	// Observing after a quantile query must keep results correct.
	h.Observe(0)
	if h.Min() != 0 {
		t.Fatalf("Min after new observation = %v, want 0", h.Min())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	// Empty summaries must be defined (zero), never NaN, so reports and
	// JSON encoders need no special-casing.
	for name, v := range map[string]float64{
		"Mean":     h.Mean(),
		"Quantile": h.Quantile(0.5),
		"Stddev":   h.Stddev(),
		"Min":      h.Min(),
		"Max":      h.Max(),
	} {
		if v != 0 {
			t.Errorf("empty histogram %s = %v, want 0", name, v)
		}
	}
	if st := h.Stats(); st != (HistStats{}) {
		t.Errorf("empty histogram Stats = %+v, want zero", st)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", q, got)
		}
	}
	st := h.Stats()
	if st.Count != 1 || st.Mean != 7 || st.Min != 7 || st.Max != 7 ||
		st.P50 != 7 || st.P99 != 7 || st.Stddev != 0 {
		t.Errorf("single-sample Stats = %+v", st)
	}
}

func TestHistogramStddev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if got := h.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Stddev() = %v, want 2", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not clear histogram")
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
		if h.Count() == 0 {
			return true
		}
		// Quantile is monotone and within [min, max].
		prev := h.Quantile(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(0) <= h.Mean() || h.Quantile(1) >= h.Mean()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Stats is the accessors taken together, bit for bit, whatever order the
// samples arrived in and whichever is asked first.
func TestStatsAgreesWithAccessors(t *testing.T) {
	f := func(vals []float64, statsFirst bool) bool {
		var h Histogram
		for _, v := range vals {
			if !math.IsNaN(v) {
				h.Observe(v)
			}
		}
		var st HistStats
		if statsFirst {
			st = h.Stats()
		}
		acc := HistStats{
			Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(), Stddev: h.Stddev(),
			P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
		}
		if !statsFirst {
			st = h.Stats()
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
	names := r.CounterNames()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("CounterNames() = %v", names)
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
	if got := l.DutyCycle(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("DutyCycle() = %v, want 0.8", got)
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

func TestRadioStateString(t *testing.T) {
	cases := map[RadioState]string{
		StateSleep: "sleep", StateListen: "listen", StateRx: "rx",
		StateTx: "tx", StateCPU: "cpu", RadioState(99): "RadioState(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
