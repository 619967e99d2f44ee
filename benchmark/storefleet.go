package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/metrics"
	"iiotds/internal/store"
)

// storeSize is the recorded size of store-fleet.
type storeSize struct {
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Series       int     `json:"series"`
	TicksPerS    int     `json:"ticks_per_s"`
	FlushTicks   int     `json:"flush_every_ticks"`
	Ticks        int     `json:"ticks"` // measured ticks at runSeconds; one more, before them, is set-up
	LateShare    float64 `json:"late_point_share"`
	LateTicks    int     `json:"late_by_ticks_max"`
	RangePerS    int     `json:"range_reads_per_s"`
	RangeTicks   int     `json:"range_window_ticks"`
	SetupRepeats int     `json:"setup_repeats"`
	Verify       int     `json:"verified_series"`
}

func storeSizes(o options) storeSize {
	s := storeSize{
		Shards: 8, Replicas: 3, Series: 5_000,
		TicksPerS: 5, FlushTicks: 5,
		LateShare: 0.01, LateTicks: 5,
		RangePerS: 500, RangeTicks: 10,
		SetupRepeats: 9, Verify: 400,
	}
	if o.smoke {
		s.Series, s.Verify = 400, 40
	}
	s.Ticks = int(float64(s.TicksPerS) * o.seconds)
	if s.Ticks < s.FlushTicks {
		s.Ticks = s.FlushTicks
	}
	return s
}

// fleetInput generates every point of the run from the seed alone, so
// the checker can recompute what a series must hold without the
// producer remembering 2 million points.
type fleetInput struct {
	seed    uint64
	tick    time.Duration
	lateCut uint64 // hash threshold for "this point is late"
	lateMax int
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// point returns the reading device i reports on tick k. One point in a
// hundred is late: stamped up to lateMax ticks in the past (offset by
// half a tick plus the lag, so no two stamps of a series collide).
func (in *fleetInput) point(i, k int) store.Point {
	h := mix64(in.seed ^ uint64(i)<<32 ^ uint64(k))
	t := time.Duration(k+1) * in.tick
	if h < in.lateCut && k >= in.lateMax {
		back := 1 + int((h>>8)%uint64(in.lateMax))
		t = time.Duration(k+1-back)*in.tick + in.tick/2 + time.Duration(back)
	}
	return store.Point{T: t, V: float64(h>>40) / 1024}
}

// fleetStore is one constructed store with its appender.
type fleetStore struct {
	st    *store.Sharded
	app   *store.Appender
	reg   *metrics.Registry
	names []string
}

func buildFleetStore(sz storeSize, seed int64) *fleetStore {
	per := map[int]store.ShardPolicy{}
	for i := 1; i < sz.Shards; i += 2 {
		per[i] = store.ShardPolicy{Mode: store.ModeCP, Replicas: sz.Replicas}
	}
	reg := metrics.NewRegistry()
	// Default GossipInterval, QuorumTimeout and binary codec: the
	// anti-entropy cost is part of what this workload measures.
	st := store.NewSharded(&clock.System{}, store.ShardedConfig{
		Shards:   sz.Shards,
		Policy:   store.ShardPolicy{Mode: store.ModeAP, Replicas: sz.Replicas},
		PerShard: per,
		Seed:     seed,
		Metrics:  reg,
		Node:     -1,
	})
	names := make([]string, sz.Series)
	for i := range names {
		names[i] = "dev/" + strconv.Itoa(i) + "/temp"
	}
	return &fleetStore{st: st, app: st.NewAppender(), reg: reg, names: names}
}

// labelled sums one store_* counter over the shards.
func (f *fleetStore) labelled(name string) float64 {
	var v float64
	for i := 0; i < f.st.NumShards(); i++ {
		sh := f.st.Shard(i)
		v += f.reg.CounterWith(name, metrics.L("shard", strconv.Itoa(i)), metrics.L("mode", sh.Policy.Mode.String())).Value()
	}
	return v
}

func runStore(o options) (*result, error) {
	sz := storeSizes(o)
	r := newResult()
	r.sizes = sz
	sp := newSpanLog(o.trace)
	prof := &cpuProfile{}

	tick := time.Second / time.Duration(sz.TicksPerS)
	in := &fleetInput{
		seed: uint64(o.seed), tick: tick,
		lateCut: uint64(sz.LateShare * float64(^uint64(0))), lateMax: sz.LateTicks,
	}

	// --- set-up, several times over: construct the store and push the
	// fleet's first report through it, which creates every series on
	// every replica. The measured phase then runs against a store whose
	// first-touch work is done. ---
	var setups []float64
	var f *fleetStore
	for rep := 0; rep < sz.SetupRepeats; rep++ {
		if f != nil {
			f.st.Stop()
			f = nil
			runtime.GC() // a discarded set-up store is garbage, not load
		}
		t0 := time.Now()
		s := sp.begin("store.NewSharded", uint64(rep), -1)
		f = buildFleetStore(sz, o.seed)
		sp.end(s)
		s = sp.begin("store.first_report", uint64(rep), -1)
		for i := 0; i < sz.Series; i++ {
			f.app.Append(f.names[i], in.point(i, 0))
		}
		f.app.Flush()
		sp.end(s)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.st.Stop()
	if f.app.Acked() != uint64(sz.Series) {
		return nil, fmt.Errorf("store-fleet: first report acked %d of %d batches", f.app.Acked(), sz.Series)
	}
	r.e2e["setup_s"] = median(setups)
	runtime.GC() // the first report's garbage is set-up's, not the measured phase's

	// --- reader goroutine: open-loop Range reads beside the ingest ---
	var rangeUS []float64
	var rangeErrs, rangeReads int
	var lateRead []float64
	stopRead := make(chan struct{})
	var wg sync.WaitGroup
	var curTick atomic.Int64 // latest completed tick, for the read window
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(o.seed ^ 0x52616e6765))
		every := time.Second / time.Duration(sz.RangePerS)
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * every)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stopRead:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-stopRead:
					return
				default:
				}
			}
			k := int(curTick.Load())
			series := f.names[rng.Intn(len(f.names))]
			to := time.Duration(k+1)*tick + 1
			from := to - time.Duration(sz.RangeTicks)*tick
			lateRead = append(lateRead, float64(time.Since(due))/1e6)
			s := sp.begin("store.Sharded.Range", uint64(j), -1)
			f.st.Range(series, from, to, func(_ []store.Point, err error) {
				rangeUS = append(rangeUS, float64(time.Since(due))/1e3)
				if err != nil {
					rangeErrs++
				}
			})
			sp.end(s)
			rangeReads++
		}
	}()

	// --- measured phase: the producer ---
	if o.trace {
		prof.start()
	}
	var cost phaseCost
	cost.start()
	var ackMS, busyMS, doneMS, flushMS, lateTick []float64
	var appendNs float64
	var flushes int
	var batchFailures uint64
	windowStart := 1
	for k := 1; k <= sz.Ticks; k++ { // tick 0 was the set-up's first report
		due := start.Add(time.Duration(k-1) * tick)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateTick = append(lateTick, float64(time.Since(due))/1e6)
		t0 := time.Now()
		root := sp.begin("store.tick", uint64(k), -1)
		sa := sp.begin("store.Appender.Append", uint64(k), root)
		for i := 0; i < sz.Series; i++ {
			f.app.Append(f.names[i], in.point(i, k))
		}
		sp.end(sa)
		appendNs += float64(time.Since(t0))
		if k%sz.FlushTicks == 0 || k == sz.Ticks {
			settled := f.app.Acked() + f.app.Failed()
			failedBefore := f.app.Failed()
			tf := time.Now()
			sf := sp.begin("store.Appender.Flush", uint64(k), root)
			f.app.Flush()
			sp.end(sf)
			flushMS = append(flushMS, float64(time.Since(tf))/1e6)
			flushes++
			// The in-memory replica fabric completes quorum rounds inside
			// the call: every batch of the window is settled on return.
			if got := f.app.Acked() + f.app.Failed() - settled; got != uint64(sz.Series) {
				return nil, fmt.Errorf("store-fleet: flush %d settled %d of %d batches synchronously", flushes, got, sz.Series)
			}
			batchFailures += f.app.Failed() - failedBefore
			acked := time.Now()
			for w := windowStart; w <= k; w++ {
				ackMS = append(ackMS, float64(acked.Sub(start.Add(time.Duration(w-1)*tick)))/1e6)
			}
			windowStart = k + 1
		}
		sp.end(root)
		busyMS = append(busyMS, float64(time.Since(t0))/1e6)
		doneMS = append(doneMS, float64(time.Since(due))/1e6)
		curTick.Store(int64(k))
	}
	cost.stop()
	close(stopRead)
	wg.Wait()

	// --- after the last tick: time until the replicas converge ---
	tc := time.Now()
	converged := false
	for time.Since(tc) < 60*time.Second {
		if f.st.Converged() {
			converged = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	convergeS := time.Since(tc).Seconds()
	if o.trace {
		shares, err := prof.stop(wStore)
		if err != nil {
			return nil, err
		}
		emitCPUShares(r.layer, shares)
	}

	// --- correctness: sampled series hold exactly the points sent ---
	rng := rand.New(rand.NewSource(o.seed ^ 0x766572696679))
	var wrongSeries, readErrs int
	for v := 0; v < sz.Verify; v++ {
		i := rng.Intn(sz.Series)
		want := make([]store.Point, 0, sz.Ticks+1)
		for k := 0; k <= sz.Ticks; k++ {
			want = append(want, in.point(i, k))
		}
		var got []store.Point
		var rerr error
		f.st.Range(f.names[i], 0, time.Duration(sz.Ticks+3)*tick, func(pts []store.Point, err error) { got, rerr = pts, err })
		switch {
		case rerr != nil:
			readErrs++
		case !seriesHolds(want, got):
			wrongSeries++
		}
	}

	// --- metrics ---
	cost.emit(r)
	points := float64(sz.Ticks * sz.Series)
	sort.Float64s(ackMS)
	sort.Float64s(rangeUS)
	r.e2e["ingest_ack_p50_ms"] = percentile(ackMS, 50)
	r.e2e["range_p50_us"] = percentile(rangeUS, 50)
	r.layer["store.range_p99_ms"] = percentile(rangeUS, 99) / 1e3
	r.layer["store.append_ns_per_point"] = appendNs / points
	r.layer["store.flush_call_ms"] = median(flushMS)
	r.layer["store.tick_busy_p50_ms"] = median(busyMS)
	r.layer["store.tick_p99_ms"] = percentile(sortedCopy(doneMS), 99)
	r.layer["store.converge_s"] = convergeS
	r.layer["store.ingest_batches"] = f.labelled("store_ingest_batches")
	if b := r.layer["store.ingest_batches"]; b > 0 {
		r.layer["store.points_per_batch"] = f.labelled("store_ingest_points") / b
	}
	r.layer["store.ap_merge_points"] = f.labelled("store_merge_points")
	r.layer["store.cp_unavail_ops"] = f.labelled("store_unavail_ops")
	r.layer["loadgen.late_p99_ms"] = percentile(sortedCopy(append(lateTick, lateRead...)), 99)
	r.layer["store.engine_append_ns"] = engineAppendNs()

	f.st.Stop()
	time.Sleep(50 * time.Millisecond) // let in-flight gossip rounds finish before reading their counters
	var rounds, gossipBytes float64
	for i := 0; i < f.st.NumShards(); i++ {
		for _, rep := range f.st.Shard(i).Replicas {
			if g := rep.Gossip(); g != nil {
				rounds += float64(g.RoundsRun)
				gossipBytes += float64(g.BytesSent)
			}
		}
	}
	r.layer["gossip.rounds"] = rounds
	r.layer["gossip.bytes_sent"] = gossipBytes
	r.layer["gossip.bytes_per_point"] = gossipBytes / points
	f.st.Flush() // close every head so Bytes covers all retained points
	var bytes, retained, ooo, compactions float64
	for _, sh := range f.st.Stats().Shards {
		bytes += float64(sh.Engine.Bytes)
		retained += float64(sh.Engine.Retained)
		ooo += float64(sh.Engine.OutOfOrder)
		compactions += float64(sh.Engine.Compactions)
	}
	if retained > 0 {
		r.layer["store.bytes_per_point"] = bytes / retained
	}
	r.layer["store.ooo_points"] = ooo
	r.layer["store.compactions"] = compactions
	if o.trace {
		r.layer["trace.overhead_share"] = spanCostNs() * float64(len(sp.s)) / 1e9 / cost.cpu
		if path, err := sp.write(wStore); err == nil {
			r.note("spans: %d written to %s", len(sp.s), path)
			r.note("%s", sp.summary())
		}
	}

	batches := int64(flushes * sz.Series)
	r.attempted = batches + int64(rangeReads)
	r.failed = int64(batchFailures) + int64(rangeErrs)
	r.e2e["delivered_share"] = 1 - float64(r.failed)/float64(r.attempted)
	r.check("all-batches-acked", batchFailures == 0 && f.app.Acked() == uint64(batches+int64(sz.Series)),
		"%d batches flushed after the set-up's %d, %d acked, %d failed", batches, sz.Series, f.app.Acked(), f.app.Failed())
	r.check("store-digests-converge", converged, "%d of %d shards converged %.2f s after the last tick", f.st.ConvergedShards(), f.st.NumShards(), convergeS)
	r.check("sampled-series-hold-sent-points", wrongSeries == 0 && readErrs == 0,
		"%d series checked against regenerated input: %d differ, %d unreadable", sz.Verify, wrongSeries, readErrs)
	r.check("range-reads-served", rangeErrs == 0 && rangeReads > 0, "%d reads, %d errors", rangeReads, rangeErrs)
	r.note("store-fleet: %d ticks x %d series = %.0f points, %d late-stamped (out of order at the engine); %d range reads; gossip %.0f rounds, %.1f MB",
		sz.Ticks, sz.Series, points, int(ooo), rangeReads, rounds, gossipBytes/1e6)
	return r, nil
}

// engineAppendNs times SeriesEngine.AppendBatch alone, per point, in
// 5-point batches like the workload's flush windows.
func engineAppendNs() float64 {
	const series, rounds, batch = 256, 400, 5
	engines := make([]*store.SeriesEngine, series)
	for i := range engines {
		engines[i] = store.NewSeriesEngine(0)
	}
	pts := make([]store.Point, batch)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for j := range pts {
			pts[j] = store.Point{T: time.Duration(r*batch+j) * time.Millisecond, V: float64(j)}
		}
		for _, e := range engines {
			e.AppendBatch(pts)
		}
	}
	return float64(time.Since(t0)) / (series * rounds * batch)
}
