package trace

import (
	"testing"
	"time"

	"iiotds/internal/metrics"
)

// jev builds a journey-stamped event at a millisecond timestamp.
func jev(ms int, node int32, typ Type, a, b int64, j uint64) Event {
	return Event{At: time.Duration(ms) * time.Millisecond, Node: node, Type: typ, A: a, B: b, J: j}
}

// roundTrip is a full CoAP exchange 5 → 3 → 0 and back, journey 1, with
// one backoff, one radio loss, and one MAC retry on the middle hop.
func roundTrip() []Event {
	return []Event{
		jev(0, 5, CoAPRequest, 17, 1, 1),
		jev(1, 5, RPLForward, 3, 0, 1),
		jev(2, 5, MACBackoff, 1, 0, 1),
		jev(3, 5, MACTx, 3, 9, 1),
		jev(4, 3, RadioDeliver, 5, 40, 1),
		jev(5, 3, RPLForward, 0, 0, 1),
		jev(6, 3, MACTx, 0, 10, 1),
		jev(7, 0, RadioLoss, 3, 0, 1),
		jev(8, 3, MACRetry, 0, 1, 1),
		jev(9, 0, RadioDeliver, 3, 40, 1),
		jev(10, 0, RPLDeliver, 5, 33, 1),
		jev(11, 0, RPLForward, 3, 5, 1),
		jev(13, 3, RPLForward, 5, 5, 1),
		jev(15, 5, RPLDeliver, 0, 33, 1),
		jev(16, 5, CoAPResponse, 17, 69, 1),
	}
}

func TestJourneyRoundTripReconstruction(t *testing.T) {
	js := Journeys(roundTrip())
	if len(js) != 1 {
		t.Fatalf("got %d journeys, want 1", len(js))
	}
	j := js[0]
	if j.ID != 1 || len(j.Events) != 15 {
		t.Fatalf("journey %d with %d events, want 1 with 15", j.ID, len(j.Events))
	}
	if j.Outcome != OutcomeDelivered {
		t.Errorf("outcome = %s, want delivered", j.Outcome)
	}
	if !j.IsCoAP() {
		t.Error("IsCoAP = false for a CoAP exchange")
	}
	if j.Retries != 1 || j.Backoffs != 1 || j.Losses != 1 || j.Deliveries != 2 {
		t.Errorf("retries/backoffs/losses/deliveries = %d/%d/%d/%d, want 1/1/1/2",
			j.Retries, j.Backoffs, j.Losses, j.Deliveries)
	}
	if got, want := j.Duration(), 16*time.Millisecond; got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}

	// Hop sequence: request legs 5→3, 3→0 then response legs 0→3, 3→5.
	wantHops := []struct {
		from, to int32
		took     time.Duration
	}{
		{5, 3, 4 * time.Millisecond}, // forward@1ms → next forward@5ms
		{3, 0, 5 * time.Millisecond}, // forward@5ms → deliver@10ms
		{0, 3, 2 * time.Millisecond}, // forward@11ms → forward@13ms
		{3, 5, 2 * time.Millisecond}, // forward@13ms → deliver@15ms
	}
	if len(j.Hops) != len(wantHops) {
		t.Fatalf("got %d hops, want %d: %+v", len(j.Hops), len(wantHops), j.Hops)
	}
	for i, w := range wantHops {
		h := j.Hops[i]
		if h.From != w.from || h.To != w.to || h.Took != w.took {
			t.Errorf("hop %d = {%d→%d took %v}, want {%d→%d took %v}",
				i, h.From, h.To, h.Took, w.from, w.to, w.took)
		}
	}

	// Per-layer breakdown: gaps attribute to the earlier event's layer,
	// and the breakdown must account for the whole duration.
	var sum time.Duration
	for _, d := range j.LayerNanos {
		sum += d
	}
	if sum != j.Duration() {
		t.Errorf("layer breakdown sums to %v, want %v", sum, j.Duration())
	}
	// CoAPRequest@0 → RPLForward@1: 1ms on the CoAP layer.
	if got := j.LayerNanos[LayerCoAP]; got != 1*time.Millisecond {
		t.Errorf("coap layer time = %v, want 1ms", got)
	}
	// Gaps after the two RadioDeliver/RadioLoss events: 4→5, 7→8, 9→10.
	if got := j.LayerNanos[LayerRadio]; got != 3*time.Millisecond {
		t.Errorf("radio layer time = %v, want 3ms", got)
	}
}

func TestJourneyTerminalOutcomes(t *testing.T) {
	events := []Event{
		// Journey 2: routing failure.
		jev(0, 2, RPLNoRoute, 9, 0, 2),
		// Journey 3: MAC gave up.
		jev(1, 4, RPLForward, 1, 9, 3),
		jev(2, 4, MACTx, 1, 5, 3),
		jev(3, 4, MACTxFail, 1, 0, 3),
		// Journey 4: CoAP exchange that timed out (MAC failure on the
		// path must NOT mask the CoAP-level verdict).
		jev(4, 6, CoAPRequest, 8, 1, 4),
		jev(5, 6, RPLForward, 2, 0, 4),
		jev(6, 6, MACTxFail, 2, 0, 4),
		jev(7, 6, CoAPTimeout, 8, 0, 4),
		// Journey 5: trace ends mid-flight.
		jev(8, 7, RPLForward, 2, 0, 5),
		// Journey-less control traffic is ignored.
		jev(9, 1, RPLDIOSent, -1, 256, 0),
	}
	js := Journeys(events)
	if len(js) != 4 {
		t.Fatalf("got %d journeys, want 4", len(js))
	}
	want := map[uint64]Outcome{
		2: OutcomeNoRoute,
		3: OutcomeMACTxFail,
		4: OutcomeCoAPTimeout,
		5: OutcomeIncomplete,
	}
	for _, j := range js {
		if j.Outcome != want[j.ID] {
			t.Errorf("journey %d outcome = %s, want %s", j.ID, j.Outcome, want[j.ID])
		}
	}
	// Sorted by ascending ID (= creation order).
	for i := 1; i < len(js); i++ {
		if js[i-1].ID >= js[i].ID {
			t.Errorf("journeys out of ID order: %d before %d", js[i-1].ID, js[i].ID)
		}
	}
}

func TestObserveJourneys(t *testing.T) {
	events := append(roundTrip(), jev(20, 2, RPLNoRoute, 9, 0, 2))
	reg := metrics.NewRegistry()
	ObserveJourneys(Journeys(events), reg)
	if got := reg.CounterWith("journey.count", metrics.L("outcome", "delivered")).Value(); got != 1 {
		t.Errorf("delivered count = %v, want 1", got)
	}
	if got := reg.CounterWith("journey.count", metrics.L("outcome", "no_route")).Value(); got != 1 {
		t.Errorf("no_route count = %v, want 1", got)
	}
	if got := reg.Histogram("journey.hops").Stats().Count; got != 2 {
		t.Errorf("hops histogram count = %d, want 2", got)
	}
	if got := reg.Histogram("journey.hops").Stats().Max; got != 4 {
		t.Errorf("hops histogram max = %v, want 4", got)
	}
	if got := reg.Histogram("journey.hop_latency_seconds").Stats().Count; got != 4 {
		t.Errorf("hop latency samples = %d, want 4 (dead hops excluded)", got)
	}
	if got := reg.Histogram("journey.duration_seconds").Stats().Max; got != 0.016 {
		t.Errorf("max duration = %v, want 0.016", got)
	}
}

func TestCoAPCoverage(t *testing.T) {
	events := roundTrip()
	if cov, tot := CoAPCoverage(events); cov != 1 || tot != 1 {
		t.Errorf("coverage = %d/%d, want 1/1", cov, tot)
	}
	// A response that lost its journey ID (j=0) is an uncovered exchange.
	events = append(events, jev(30, 9, CoAPResponse, 4, 69, 0))
	if cov, tot := CoAPCoverage(events); cov != 1 || tot != 2 {
		t.Errorf("coverage = %d/%d, want 1/2", cov, tot)
	}
	// A response whose journey never recorded the request is uncovered too.
	events = append(events, jev(31, 9, CoAPResponse, 4, 69, 77))
	if cov, tot := CoAPCoverage(events); cov != 1 || tot != 3 {
		t.Errorf("coverage = %d/%d, want 1/3", cov, tot)
	}
	if cov, tot := CoAPCoverage(nil); cov != 0 || tot != 0 {
		t.Errorf("empty coverage = %d/%d, want 0/0", cov, tot)
	}
}
