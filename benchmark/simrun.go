package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// simRun is one in-process repeat of a virtual-time workload. Every
// sim workload runs twice at the same seed. Both repeats are measured
// work — the host-time metrics are taken over the two together — and
// they must agree exactly on every virtual-time metric and exact count
// (the determinism check). In a traced invocation the second repeat
// carries the flight recorder, the spans and the CPU profile, so the
// first alone is timed and is the untraced reference for
// trace.overhead_share.
type simRun struct {
	setupWall       float64
	convergeVirtual float64
	convergeWall    float64
	cost            phaseCost
	nodeSimSeconds  float64
	attempted       int64
	undelivered     int64
	hardFailed      int64
	// exact holds virtual-time metrics and counts that must be
	// identical across the two repeats (keys are metric names).
	exact map[string]float64
	// layer holds host-time layer metrics of this repeat.
	layer  map[string]float64
	checks []check
	notes  []string
	sizes  any
}

func newSimRun() *simRun {
	return &simRun{exact: map[string]float64{}, layer: map[string]float64{}}
}

func (s *simRun) check(name string, ok bool, format string, args ...any) {
	s.checks = append(s.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// simTracing is what a traced repeat carries.
type simTracing struct {
	on    bool
	spans *spanLog
	prof  *cpuProfile
}

// runSimTwice drives the two repeats and folds them into a result. The
// workload sets up setups times in all: once for each repeat, the rest
// (setupOnly) only to be timed.
func runSimTwice(o options, setups int, one func(o options, tr *simTracing) (*simRun, error), setupOnly func(o options) (float64, error)) (*result, error) {
	a, err := one(o, &simTracing{spans: newSpanLog(false)})
	if err != nil {
		return nil, err
	}
	setupWalls := []float64{a.setupWall}
	for len(setupWalls) < setups-1 {
		s, err := setupOnly(o)
		if err != nil {
			return nil, err
		}
		setupWalls = append(setupWalls, s)
	}
	tr := &simTracing{on: o.trace, spans: newSpanLog(o.trace), prof: &cpuProfile{}}
	b, err := one(o, tr)
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.sizes = b.sizes
	r.checks = append(r.checks, b.checks...)
	r.notes = append(r.notes, b.notes...)

	// Determinism: the second repeat reproduces the first exactly.
	diffs := exactDiffs(a.exact, b.exact)
	detail := fmt.Sprintf("%d virtual metrics and exact counts identical across two in-process repeats", len(a.exact))
	if len(diffs) > 0 {
		detail = fmt.Sprint(diffs)
	}
	r.check("same-seed-repeat-identical", len(diffs) == 0, "%s", detail)

	for k, v := range b.exact {
		switch {
		case e2eByName(k) != nil:
			r.e2e[k] = v
		case layerByName(k) != nil:
			r.layer[k] = v
		} // the rest only witness that the repeats agree
	}
	for k, v := range b.layer {
		r.layer[k] = v
	}

	// Host cost is that of both repeats together; a traced second repeat
	// is no reference, so a traced invocation times the first alone.
	timed := a.cost
	nodeSim, events := a.nodeSimSeconds, a.exact["sim.events_fired"]
	if !o.trace {
		timed.add(b.cost)
		nodeSim += b.nodeSimSeconds
		events += b.exact["sim.events_fired"]
	}
	timed.emit(r)
	r.e2e["sim_rate"] = nodeSim / timed.wall
	r.e2e["setup_s"] = median(append(setupWalls, b.setupWall))
	r.attempted = a.attempted + b.attempted
	r.failed = a.hardFailed + b.hardFailed
	r.e2e["delivered_share"] = 1 - float64(a.undelivered+b.undelivered+r.failed)/float64(r.attempted)

	if events > 0 {
		r.layer["sim.ns_per_event"] = timed.wall * 1e9 / events
		r.layer["sim.mallocs_per_event"] = float64(timed.mallocs) / events
	}
	r.layer["rpl.converge_virtual_s"] = b.convergeVirtual
	r.layer["rpl.converge_wall_s"] = (a.convergeWall + b.convergeWall) / 2
	if o.trace {
		// The second repeat ran traced, the first did not: same work,
		// so the wall-time difference is what tracing costs.
		r.layer["trace.overhead_share"] = (b.cost.wall - a.cost.wall) / a.cost.wall
	}
	return r, nil
}

// counterDelta snapshots registry counters so a measured phase can
// report only what it added.
type counterDelta struct {
	regs  []*metrics.Registry
	names []string
	base  map[string]float64
}

func newCounterDelta(names []string, regs ...*metrics.Registry) *counterDelta {
	c := &counterDelta{regs: regs, names: names}
	c.base = c.read()
	return c
}

func (c *counterDelta) read() map[string]float64 {
	out := make(map[string]float64, len(c.names))
	for _, n := range c.names {
		for _, reg := range c.regs {
			out[n] += reg.Counter(n).Value()
		}
	}
	return out
}

func (c *counterDelta) delta() map[string]float64 {
	now := c.read()
	for k, v := range c.base {
		now[k] -= v
	}
	return now
}

// meshCounters are the registry counters the sim workloads report.
var meshCounters = []string{
	"radio.tx_frames", "radio.rx_frames", "radio.collisions", "radio.dropped_loss",
	"rpl.dio_sent", "rpl.dao_sent", "rpl.parent_switches", "rpl.datagrams_forwarded",
	"rpl.no_route_drops", "rpl.link_drops",
}

// emitMeshCounters stores the counter deltas and kernel deltas of one
// measured phase as exact metrics.
func emitMeshCounters(s *simRun, d map[string]float64, before, after sim.Stats) {
	for _, n := range meshCounters {
		if n == "radio.rx_frames" {
			continue
		}
		s.exact[n] = d[n]
	}
	if tx := d["radio.tx_frames"]; tx > 0 {
		s.exact["radio.rx_per_tx"] = d["radio.rx_frames"] / tx
	}
	fired := after.Fired - before.Fired
	s.exact["sim.events_fired"] = float64(fired)
	if sched := after.Scheduled - before.Scheduled; sched > 0 {
		s.exact["sim.canceled_share"] = float64(after.Canceled-before.Canceled) / float64(sched)
	}
	s.exact["sim.max_heap_depth"] = float64(after.MaxHeapDepth)
}

// traceCounts maps the flight recorder's exact per-type counts (they
// survive ring wrap) onto the MAC/CoAP layer counts the registry does
// not carry.
func emitTraceCounts(s *simRun, sum trace.Summary, base trace.Summary) {
	count := func(su trace.Summary, t trace.Type) float64 {
		for _, tc := range su.Counts {
			if tc.T == t {
				return float64(tc.Count)
			}
		}
		return 0
	}
	d := func(t trace.Type) float64 { return count(sum, t) - count(base, t) }
	s.layer["mac.retries"] = d(trace.MACRetry)
	s.layer["mac.tx_failed"] = d(trace.MACTxFail)
	s.layer["mac.strobes"] = d(trace.MACStrobe)
	s.layer["mac.backoffs"] = d(trace.MACBackoff)
	s.layer["coap.retransmits"] = d(trace.CoAPRetransmit)
	s.layer["coap.timeouts"] = d(trace.CoAPTimeout)
}

// emitJourneys folds reconstructed journeys into the per-layer virtual
// time attribution: for each layer, the mean virtual milliseconds a
// delivered journey spent held by that layer. Ring coverage is the
// share of emitted events still in the ring when it was read.
func emitJourneys(s *simRun, rec *trace.Recorder) {
	sum := rec.Summary()
	if sum.Total > 0 {
		s.layer["trace.ring_coverage"] = 1 - float64(sum.Dropped)/float64(sum.Total)
	}
	js := trace.Journeys(rec.Events())
	var n int
	var held [len(trace.Journey{}.LayerNanos)]time.Duration
	var hops []float64
	for _, j := range js {
		// A journey whose head the ring already dropped would report
		// only part of its path: keep those that start at an origin.
		if t := j.Events[0].Type; j.Outcome != trace.OutcomeDelivered || (t != trace.RPLForward && t != trace.CoAPRequest) {
			continue
		}
		n++
		for l := range j.LayerNanos {
			held[l] += j.LayerNanos[l]
		}
		hops = append(hops, float64(len(j.Hops)))
	}
	s.notes = append(s.notes, fmt.Sprintf("journeys: %d delivered of %d reconstructed, ring coverage %.3f",
		n, len(js), s.layer["trace.ring_coverage"]))
	if n == 0 {
		return
	}
	per := func(l trace.Layer) float64 { return durMS(held[l]) / float64(n) }
	s.layer["mac.virt_ms_per_journey"] = per(trace.LayerMAC) + per(trace.LayerRadio)
	s.layer["link.virt_ms_per_journey"] = per(trace.LayerLink)
	s.layer["rpl.virt_ms_per_journey"] = per(trace.LayerRPL)
	s.layer["coap.virt_ms_per_journey"] = per(trace.LayerCoAP)
	sort.Float64s(hops)
	s.layer["rpl.hops_p50"] = percentile(hops, 50)
}

// radioSendNs times Medium.Send (plus its completion drain) on a
// stand-alone medium laid out on the workload's own topology.
func radioSendNs(positions radio.Topology) float64 {
	k := sim.New(1)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	for i, p := range positions {
		m.Attach(radio.NodeID(i), p, radio.ReceiverFunc(func(radio.Frame) {}))
		m.SetListening(radio.NodeID(i), true)
	}
	n := len(positions)
	send := func(i int) {
		m.Send(radio.Frame{From: radio.NodeID(i % n), To: radio.Broadcast, Size: 30})
		k.Run()
	}
	for i := 0; i < n; i++ { // warm pools and per-cell candidate caches
		send(i)
	}
	const rounds = 20000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		send(i)
	}
	return float64(time.Since(t0)) / rounds
}

// lowpanCodec times one Encode + Feed round trip per datagram over the
// workload's own payload mix and reports the fragments a datagram
// becomes: (ns per datagram, fragments per datagram).
func lowpanCodec(payloadSizes []int) (ns, frags float64) {
	pool := netbuf.NewPool()
	// The zero Config is what core's routers run (rpl.Config.Lowpan).
	tx := lowpan.NewAdaptation(lowpan.Config{})
	rx := lowpan.NewAdaptation(lowpan.Config{})
	tx.UsePool(pool)
	rx.UsePool(pool)
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, len(payloadSizes))
	for i, sz := range payloadSizes {
		payloads[i] = make([]byte, sz)
		rng.Read(payloads[i])
	}
	var scratch []*netbuf.Buffer
	var nfrag, ndg int
	round := func(i int) {
		d := &lowpan.Datagram{Src: 1, Dst: 0, Proto: lowpan.ProtoIngest, HopLimit: 64, Seq: uint16(i), Payload: payloads[i%len(payloads)]}
		frames, err := tx.Encode(d, scratch[:0])
		if err != nil {
			return
		}
		ndg++
		nfrag += len(frames)
		for _, f := range frames {
			_, _ = rx.Feed(0, 1, f.Bytes())
			f.Release()
		}
		scratch = frames[:0]
	}
	for i := 0; i < 2000; i++ {
		round(i)
	}
	nfrag, ndg = 0, 0
	const rounds = 40000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		round(i)
	}
	if ndg == 0 {
		return 0, 0
	}
	return float64(time.Since(t0)) / float64(ndg), float64(nfrag) / float64(ndg)
}
