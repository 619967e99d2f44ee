package trace

import (
	"sort"
	"time"

	"iiotds/internal/metrics"
)

// This file is the journey reconstruction engine: it folds a recorded
// event stream back into per-packet flight paths. A journey is every
// event stamped with the same journey ID (Event.J) — the full causal
// story of one logical datagram (and, for CoAP, its response riding the
// same ID back), from the RPL send through MAC retries, radio losses,
// multi-hop forwarding, to delivery or a terminal failure.
//
// IDs are kernel-scoped counters assigned by netbuf.Journeys, so within
// one trial's trace they are unique and dense; 0 marks events not tied
// to any packet (control beacons, bus traffic, injected faults), which
// reconstruction ignores.

// Outcome classifies how a journey ended.
type Outcome uint8

const (
	// OutcomeIncomplete: the trace ended (or the ring dropped events)
	// before a terminal event was seen.
	OutcomeIncomplete Outcome = iota
	// OutcomeDelivered: the packet reached its destination handler —
	// and, for CoAP journeys, a response made it back to the requester.
	OutcomeDelivered
	// OutcomeMACTxFail: a MAC exhausted its retry budget and the journey
	// never recovered.
	OutcomeMACTxFail
	// OutcomeNoRoute: RPL had no route toward the destination.
	OutcomeNoRoute
	// OutcomeCoAPTimeout: the CoAP message layer gave up on the exchange.
	OutcomeCoAPTimeout
)

var outcomeNames = [...]string{"incomplete", "delivered", "mac_tx_fail", "no_route", "coap_timeout"}

// String returns the outcome's lowercase name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "?"
}

// Hop is one link-level leg of a journey: an RPL forwarding decision
// (origination included) at node From toward next hop To. Took is the
// virtual time from this decision to the next routing event (the next
// hop's forward, or the delivery); 0 if the journey died on this hop.
type Hop struct {
	From int32
	To   int32
	At   Time
	Took time.Duration
}

// Journey is one reconstructed packet flight path.
type Journey struct {
	// ID is the journey ID shared by all of the journey's events.
	ID uint64
	// Events are the journey's events in emission (= virtual time) order.
	Events []Event
	// Start and End bound the journey in virtual time.
	Start, End Time
	// Hops is the RPL-level hop sequence (request and, for CoAP
	// round trips, response legs in one list).
	Hops []Hop
	// Retries counts MAC retransmissions plus CoAP retransmits.
	Retries int
	// Backoffs counts MAC carrier-sense backoffs.
	Backoffs int
	// Losses counts radio-level copy losses (stochastic loss and
	// collisions) suffered by this packet.
	Losses int
	// Deliveries counts RPL deliveries to a destination handler (a CoAP
	// round trip has two: request at the server, response back at the
	// client).
	Deliveries int
	// Outcome is the terminal classification.
	Outcome Outcome
	// LayerNanos breaks the journey's duration down by layer: the gap
	// between consecutive events is attributed to the layer of the
	// earlier event (the layer that "held" the packet during the gap).
	// Index with a Layer value.
	LayerNanos [int(numLayers)]time.Duration
}

// Duration returns the journey's total virtual-time span.
func (j *Journey) Duration() time.Duration { return j.End - j.Start }

// Journeys reconstructs every journey present in events (typically
// Recorder.Events() or ReadJSONL output). Events with J == 0 are
// ignored. The result is sorted by ascending journey ID — which, IDs
// being a kernel-scoped counter, is also creation order.
func Journeys(events []Event) []*Journey {
	byID := make(map[uint64]*Journey)
	for _, e := range events {
		if e.J == 0 {
			continue
		}
		j := byID[e.J]
		if j == nil {
			j = &Journey{ID: e.J, Start: e.At}
			byID[e.J] = j
		}
		if n := len(j.Events); n > 0 {
			prev := j.Events[n-1]
			if l := prev.Type.Layer(); l < numLayers {
				j.LayerNanos[l] += e.At - prev.At
			}
		}
		j.Events = append(j.Events, e)
		j.End = e.At
		switch e.Type {
		case MACRetry, CoAPRetransmit:
			j.Retries++
		case MACBackoff:
			j.Backoffs++
		case RadioLoss, RadioCollision:
			j.Losses++
		case RPLDeliver:
			j.Deliveries++
		}
	}
	out := make([]*Journey, 0, len(byID))
	for _, j := range byID {
		j.finish()
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// finish derives the hop sequence and terminal outcome from the
// collected event list.
func (j *Journey) finish() {
	// Hop sequence: each RPLForward opens a leg that closes at the next
	// routing event (forward at the next hop, or delivery).
	for i, e := range j.Events {
		if e.Type != RPLForward {
			continue
		}
		h := Hop{From: e.Node, To: int32(e.A), At: e.At}
		for _, later := range j.Events[i+1:] {
			if later.Type == RPLForward || later.Type == RPLDeliver {
				h.Took = later.At - e.At
				break
			}
		}
		j.Hops = append(j.Hops, h)
	}

	var hasReq, hasResp, hasCoAPTimeout, hasNoRoute, hasTxFail bool
	for _, e := range j.Events {
		switch e.Type {
		case CoAPRequest:
			hasReq = true
		case CoAPResponse:
			hasResp = true
		case CoAPTimeout:
			hasCoAPTimeout = true
		case RPLNoRoute:
			hasNoRoute = true
		case MACTxFail:
			hasTxFail = true
		}
	}
	switch {
	case hasReq:
		// A CoAP journey succeeds only if the response made it back.
		switch {
		case hasResp:
			j.Outcome = OutcomeDelivered
		case hasCoAPTimeout:
			j.Outcome = OutcomeCoAPTimeout
		case hasNoRoute:
			j.Outcome = OutcomeNoRoute
		case hasTxFail:
			j.Outcome = OutcomeMACTxFail
		default:
			j.Outcome = OutcomeIncomplete
		}
	case j.Deliveries > 0:
		j.Outcome = OutcomeDelivered
	case hasNoRoute:
		j.Outcome = OutcomeNoRoute
	case hasTxFail:
		j.Outcome = OutcomeMACTxFail
	default:
		j.Outcome = OutcomeIncomplete
	}
}

// ObserveJourneys folds reconstructed journeys into aggregate metrics:
//
//	journey.count{outcome=...}       counter per terminal outcome
//	journey.hops                     histogram of hop counts
//	journey.duration_seconds         histogram of end-to-end durations
//	journey.hop_latency_seconds      histogram of per-hop latencies
//	journey.retries                  histogram of retry counts
func ObserveJourneys(js []*Journey, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	hops := reg.Histogram("journey.hops")
	dur := reg.Histogram("journey.duration_seconds")
	hopLat := reg.Histogram("journey.hop_latency_seconds")
	retries := reg.Histogram("journey.retries")
	for _, j := range js {
		reg.CounterWith("journey.count", metrics.L("outcome", j.Outcome.String())).Inc()
		hops.Observe(float64(len(j.Hops)))
		dur.ObserveDuration(j.Duration())
		retries.Observe(float64(j.Retries))
		for _, h := range j.Hops {
			if h.Took > 0 {
				hopLat.ObserveDuration(h.Took)
			}
		}
	}
}

// CoAPCoverage reports how many delivered CoAP exchanges the trace
// contains (one per CoAPResponse event) and how many of those are
// covered by a complete journey: a nonzero journey ID whose journey
// also recorded the originating CoAPRequest. The CI gate demands
// covered/total ≥ 0.99; with no exchanges at all the check is vacuous
// (callers should treat 0/0 as full coverage).
func CoAPCoverage(events []Event) (covered, total int) {
	byID := make(map[uint64]*Journey)
	for _, j := range Journeys(events) {
		byID[j.ID] = j
	}
	for _, e := range events {
		if e.Type != CoAPResponse {
			continue
		}
		total++
		if j := byID[e.J]; j != nil {
			for _, je := range j.Events {
				if je.Type == CoAPRequest {
					covered++
					break
				}
			}
		}
	}
	return covered, total
}
