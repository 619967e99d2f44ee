package store

import (
	"fmt"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/metrics"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

func newSharded(t *testing.T, shards, replicas int, mode Mode) (*Sharded, *sim.Kernel) {
	t.Helper()
	k := sim.New(3)
	s := NewSharded(clock.Kernel{K: k}, ShardedConfig{
		Shards: shards,
		Policy: ShardPolicy{Mode: mode, Replicas: replicas},
		Seed:   7,
		Node:   -1,
	})
	t.Cleanup(s.Stop)
	return s, k
}

func ingestN(s *Sharded, series []string, n int) {
	a := s.NewAppender()
	for i := 0; i < n; i++ {
		for _, name := range series {
			a.Append(name, Point{T: time.Duration(i) * 100 * time.Millisecond, V: float64(i)})
		}
	}
	a.Flush()
}

func testSeries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("plant/line%d/temp", i)
	}
	return out
}

func TestShardOfStableAndSpread(t *testing.T) {
	s, _ := newSharded(t, 8, 1, ModeAP)
	hit := make(map[int]bool)
	for _, name := range testSeries(64) {
		a, b := s.ShardOf(name), s.ShardOf(name)
		if a != b || a < 0 || a >= 8 {
			t.Fatalf("ShardOf(%q) unstable or out of range: %d/%d", name, a, b)
		}
		hit[a] = true
	}
	if len(hit) < 6 { // 64 keys over 8 shards: expect most shards used
		t.Fatalf("FNV routing collapsed to %d/8 shards", len(hit))
	}
}

func TestShardedAPIngestConvergesNoDuplicates(t *testing.T) {
	s, k := newSharded(t, 4, 3, ModeAP)
	series := testSeries(8)
	ingestN(s, series, 100)
	k.RunFor(30 * time.Second) // anti-entropy rounds
	if !s.Converged() {
		t.Fatalf("converged %d/%d shards", s.ConvergedShards(), s.NumShards())
	}
	// Every point ingested exactly once per replica: coordinator totals
	// across shards must equal the 8*100 appended, and every replica in
	// a shard must match its coordinator (digest equality above), so
	// gossip re-delivery added no duplicates.
	if got := s.Stats().TotalPoints(); got != 8*100 {
		t.Fatalf("coordinator points = %d, want %d", got, 8*100)
	}
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		want := sh.Coordinator().SeriesStats().Points
		for j, r := range sh.Replicas {
			if got := r.SeriesStats().Points; got != want {
				t.Fatalf("shard %d replica %d points = %d, coordinator %d", i, j, got, want)
			}
		}
	}
}

func TestShardedAPPartitionHealConverges(t *testing.T) {
	s, k := newSharded(t, 2, 3, ModeAP)
	series := testSeries(4)
	ingestN(s, series, 10)
	k.RunFor(10 * time.Second)
	s.PartitionReplica(2)
	ingestN(s, series, 10) // AP ingest keeps succeeding
	k.RunFor(10 * time.Second)
	if s.Converged() {
		t.Fatal("converged across an active partition")
	}
	s.Heal()
	k.RunFor(30 * time.Second)
	if !s.Converged() {
		t.Fatalf("not converged after heal: %d/%d shards", s.ConvergedShards(), s.NumShards())
	}
}

func TestShardedCPQuorumIngestAndFollowerCatchUp(t *testing.T) {
	s, k := newSharded(t, 2, 3, ModeCP)
	series := testSeries(4)
	a := s.NewAppender()
	for i := 0; i < 100; i++ {
		for _, name := range series {
			a.Append(name, Point{T: time.Duration(i) * time.Second, V: float64(i)})
		}
	}
	a.Flush()
	k.RunFor(time.Minute)
	if a.Failed() != 0 {
		t.Fatalf("healthy CP ingest failed %d batches", a.Failed())
	}
	if !s.Converged() {
		t.Fatal("CP shards not converged after quorum ingest")
	}
	// Cut a follower out: quorum 2/3 holds, ingest keeps succeeding.
	s.PartitionReplica(2)
	for i := 100; i < 120; i++ {
		for _, name := range series {
			a.Append(name, Point{T: time.Duration(i) * time.Second, V: float64(i)})
		}
	}
	a.Flush()
	k.RunFor(time.Minute)
	if a.Failed() != 0 {
		t.Fatalf("CP ingest with majority failed %d batches", a.Failed())
	}
	if s.Converged() {
		t.Fatal("stale follower counted as converged")
	}
	// Heal; the next append hits the stale follower with a version gap,
	// which triggers the full-series sync catch-up.
	s.Heal()
	for _, name := range series {
		a.Append(name, Point{T: 120 * time.Second, V: 120})
	}
	a.Flush()
	k.RunFor(time.Minute)
	if !s.Converged() {
		t.Fatalf("follower did not catch up after heal: %d/%d shards", s.ConvergedShards(), s.NumShards())
	}
}

func TestShardedCPCoordinatorPartitionUnavailable(t *testing.T) {
	s, k := newSharded(t, 2, 3, ModeCP)
	series := testSeries(4)
	ingestN(s, series, 10)
	k.RunFor(10 * time.Second)
	s.PartitionReplica(0) // isolate every coordinator: no quorum
	a := s.NewAppender()
	for _, name := range series {
		a.Append(name, Point{T: 100 * time.Second, V: 1})
	}
	a.Flush()
	k.RunFor(time.Minute) // quorum timeouts fire
	if a.Failed() != uint64(len(series)) {
		t.Fatalf("minority CP ingest: %d failed, want %d", a.Failed(), len(series))
	}
	// Heal + explicit repair reconverges even with no further appends.
	s.Heal()
	s.Repair()
	k.RunFor(time.Minute)
	if !s.Converged() {
		t.Fatalf("CP shards not repaired after heal: %d/%d", s.ConvergedShards(), s.NumShards())
	}
}

func TestShardedPerShardPolicyOverride(t *testing.T) {
	k := sim.New(3)
	s := NewSharded(clock.Kernel{K: k}, ShardedConfig{
		Shards:   2,
		Policy:   ShardPolicy{Mode: ModeAP, Replicas: 3},
		PerShard: map[int]ShardPolicy{1: {Mode: ModeCP, Replicas: 5}},
		Node:     -1,
	})
	defer s.Stop()
	if s.Shard(0).Policy.Mode != ModeAP || len(s.Shard(0).Replicas) != 3 {
		t.Fatalf("shard 0 policy: %+v", s.Shard(0).Policy)
	}
	if s.Shard(1).Policy.Mode != ModeCP || len(s.Shard(1).Replicas) != 5 {
		t.Fatalf("shard 1 override ignored: %+v", s.Shard(1).Policy)
	}
}

func TestShardedRangeQuery(t *testing.T) {
	for _, mode := range []Mode{ModeCP, ModeAP} {
		s, k := newSharded(t, 4, 3, mode)
		name := "plant/line1/temp"
		var pts []Point
		for i := 0; i < 50; i++ {
			pts = append(pts, Point{T: time.Duration(i) * time.Second, V: float64(i)})
		}
		s.Ingest(name, pts, nil)
		k.RunFor(30 * time.Second)
		var got []Point
		var gotErr error
		s.Range(name, 10*time.Second, 20*time.Second, func(p []Point, err error) { got, gotErr = p, err })
		k.RunFor(10 * time.Second)
		if gotErr != nil {
			t.Fatalf("%v Range err: %v", mode, gotErr)
		}
		if len(got) != 10 || got[0].V != 10 || got[9].V != 19 {
			t.Fatalf("%v Range = %d points %+v", mode, len(got), got)
		}
		s.Stop()
	}
}

// TestCoordinatorListsOneSeriesPerNameSorted is what a Range-for-
// diagnosis client relies on: a one-shard store's coordinator knows
// every series by name, once, in sorted order, in both modes.
func TestCoordinatorListsOneSeriesPerNameSorted(t *testing.T) {
	for _, mode := range []Mode{ModeCP, ModeAP} {
		s, k := newSharded(t, 1, 3, mode)
		a := s.NewAppender()
		for i, name := range []string{"obs/press-1/temp", "obs/press-1/rpm", "obs/press-1/temp", "obs/mesh/vibration_max"} {
			a.Append(name, Point{T: time.Duration(i) * time.Second, V: float64(i)})
		}
		a.Flush()
		k.RunFor(5 * time.Second)
		got := s.Shard(0).Coordinator().SeriesNames()
		want := []string{"obs/mesh/vibration_max", "obs/press-1/rpm", "obs/press-1/temp"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v SeriesNames = %v, want %v", mode, got, want)
		}
		var pts []Point
		err := fmt.Errorf("Range never completed")
		s.Range("obs/press-1/temp", 0, time.Minute, func(p []Point, e error) { pts, err = p, e })
		k.RunFor(5 * time.Second)
		if err != nil || len(pts) != 2 || pts[0].V != 0 || pts[1].V != 2 {
			t.Fatalf("%v obs/press-1/temp = %+v, %v", mode, pts, err)
		}
		s.Stop()
	}
}

func TestShardedCPRangeFreshestWins(t *testing.T) {
	s, k := newSharded(t, 1, 3, ModeCP)
	name := "m"
	s.Ingest(name, []Point{{T: secs(1), V: 1}}, nil)
	k.RunFor(5 * time.Second)
	// Stale follower: cut replica 2, append more, heal. Replica 2 now
	// holds version 1 while the quorum holds version 2.
	s.PartitionReplica(2)
	s.Ingest(name, []Point{{T: secs(2), V: 2}}, nil)
	k.RunFor(5 * time.Second)
	s.Heal()
	// A quorum range through the coordinator must return the fresh data
	// regardless of the stale follower's reply.
	var got []Point
	s.Range(name, 0, time.Hour, func(p []Point, err error) { got = p })
	k.RunFor(5 * time.Second)
	if len(got) != 2 {
		t.Fatalf("freshest-wins range = %+v", got)
	}
}

func TestAppenderBatchesAndFlushOrder(t *testing.T) {
	s, _ := newSharded(t, 2, 1, ModeCP)
	a := s.NewAppender()
	// Below the batch size nothing is ingested...
	for i := 0; i < 10; i++ {
		a.Append("x", Point{T: secs(i), V: float64(i)})
	}
	if got := s.Stats().TotalPoints(); got != 0 {
		t.Fatalf("ingested %d points before batch filled", got)
	}
	// ...the 64th point triggers the flush.
	for i := 10; i < 64; i++ {
		a.Append("x", Point{T: secs(i), V: float64(i)})
	}
	if got := s.Stats().TotalPoints(); got != 64 {
		t.Fatalf("batch flush ingested %d, want 64", got)
	}
	// Manual flush drains partial batches.
	a.Append("y", Point{T: 0, V: 1})
	a.Append("x", Point{T: secs(64), V: 64})
	a.Flush()
	if got := s.Stats().TotalPoints(); got != 66 {
		t.Fatalf("after Flush: %d, want 66", got)
	}
	if a.Acked() != 3 || a.Failed() != 0 {
		t.Fatalf("acked/failed = %d/%d", a.Acked(), a.Failed())
	}
}

// TestAppenderZeroAllocs is the CI gate for the full batched ingest
// path: Appender.Append → Sharded.Ingest → coordinator AppendPoints →
// engine AppendBatch, on a single-replica shard (no quorum round). At
// steady state — batches recycled, the series' first segment closed and
// its full-size head reused (see TestBatchedAppendZeroAllocs) — the path
// must not allocate.
func TestAppenderZeroAllocs(t *testing.T) {
	k := sim.New(3)
	s := NewSharded(clock.Kernel{K: k}, ShardedConfig{
		Shards: 1,
		Policy: ShardPolicy{Mode: ModeCP, Replicas: 1},
		Node:   -1,
	})
	defer s.Stop()
	a := s.NewAppender()
	var tm time.Duration
	append64 := func() {
		for i := 0; i < 64; i++ { // exactly one batch: one flush per run
			tm += time.Millisecond
			a.Append("plant/temp", Point{T: tm, V: 1.5})
		}
	}
	closed := func() uint64 { return s.Stats().Shards[0].Engine.SegsClosed }
	for closed() == 0 { // warm: the batch, the series, a head grown to a full segment
		append64()
	}
	runs := DefaultSegmentSize/64 - 2 // AllocsPerRun adds a run of its own
	allocs := testing.AllocsPerRun(runs, append64)
	if closed() != 1 {
		t.Fatalf("%d segments closed: the measured window left the head", closed())
	}
	if allocs != 0 {
		t.Fatalf("batched ingest allocs per 64-point batch = %v, want 0", allocs)
	}
}

func TestShardedTraceAndMetrics(t *testing.T) {
	k := sim.New(3)
	rec := trace.New(256, func() trace.Time { return k.Now() })
	reg := metrics.NewRegistry()
	s := NewSharded(clock.Kernel{K: k}, ShardedConfig{
		Shards:  2,
		Policy:  ShardPolicy{Mode: ModeAP, Replicas: 2},
		Seed:    3,
		Rec:     rec,
		Metrics: reg,
		Node:    -1,
	})
	defer s.Stop()
	series := testSeries(4)
	ingestN(s, series, 100)
	k.RunFor(20 * time.Second)
	s.Flush()
	s.Compact()
	if n := rec.Count(trace.StoreAppend); n == 0 {
		t.Fatal("no StoreAppend events")
	}
	if n := rec.Count(trace.StoreAntiEntropy); n == 0 {
		t.Fatal("no StoreAntiEntropy events")
	}
	if n := rec.Count(trace.StoreFlush); n == 0 {
		t.Fatal("no StoreFlush events")
	}
	total := 0.0
	for i := 0; i < 2; i++ {
		total += reg.CounterWith("store_ingest_points",
			metrics.L("shard", fmt.Sprint(i)), metrics.L("mode", "AP")).Value()
	}
	if total != 400 {
		t.Fatalf("store_ingest_points = %v, want 400", total)
	}
}

// --- ingest throughput: single replica vs sharded (BENCH_store.json) ---

// benchIngest measures readings/sec through the store's write path.
// batched=false reproduces the pre-refactor shape — every reading is an
// individual replicated append (per-reading routing, locking, and
// completion), which is how the single-replica toy tier absorbed
// telemetry. batched=true runs the new Appender pipeline: per-series
// batches amortize routing and locks over batchSize points and land in
// the engine as one bulk copy. The CI host is a single core, so any
// speedup recorded here is algorithmic (batching + bulk segment
// appends), not hardware parallelism.
func benchIngest(b *testing.B, shards, replicas, producers int, mode Mode, batched bool) {
	// Wall clock: throughput benchmarks measure real ingest rates, and
	// the System scheduler is safe for concurrent producers (the sim
	// kernel is single-threaded by design).
	s := NewSharded(&clock.System{}, ShardedConfig{
		Shards:         shards,
		Policy:         ShardPolicy{Mode: mode, Replicas: replicas},
		GossipInterval: time.Hour, // measure the ingest path, not anti-entropy
		Node:           -1,
	})
	defer s.Stop()
	perProducer := b.N / producers
	if perProducer == 0 {
		perProducer = 1
	}
	// One producer per shard: pick series names that hash onto distinct
	// shards so the benchmark measures P-way ingest, not hash collisions
	// piling producers onto one coordinator.
	names := make([]string, producers)
	for p := range names {
		for probe := 0; ; probe++ {
			name := fmt.Sprintf("plant/line%d/%d/temp", p, probe)
			if s.ShardOf(name) == p%shards {
				names[p] = name
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{}, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			series := names[p]
			if batched {
				a := s.NewAppender()
				for i := 0; i < perProducer; i++ {
					a.Append(series, Point{T: time.Duration(i) * time.Millisecond, V: float64(i)})
				}
				a.Flush()
			} else {
				one := make([]Point, 1)
				for i := 0; i < perProducer; i++ {
					one[0] = Point{T: time.Duration(i) * time.Millisecond, V: float64(i)}
					s.Ingest(series, one, nil)
				}
			}
			done <- struct{}{}
		}(p)
	}
	for p := 0; p < producers; p++ {
		<-done
	}
	b.StopTimer()
	b.ReportMetric(float64(perProducer*producers)/b.Elapsed().Seconds(), "readings/s")
}

// BenchmarkIngestSingleReplica is the pre-refactor baseline: one
// unsharded replica, one reading per append.
func BenchmarkIngestSingleReplica(b *testing.B) { benchIngest(b, 1, 1, 1, ModeCP, false) }

// BenchmarkIngestUnshardedCPUnbatched is the serializing replicated
// baseline the refactor is measured against (the 2PC-redundant-storage
// shape): one unsharded 3-replica CP group, every reading an individual
// quorum round.
func BenchmarkIngestUnshardedCPUnbatched(b *testing.B) { benchIngest(b, 1, 3, 1, ModeCP, false) }

// BenchmarkIngestSingleReplicaBatched isolates the batching win on the
// same single-replica topology.
func BenchmarkIngestSingleReplicaBatched(b *testing.B) { benchIngest(b, 1, 1, 1, ModeCP, true) }

func BenchmarkIngestSharded8AP(b *testing.B) { benchIngest(b, 8, 3, 8, ModeAP, true) }

func BenchmarkIngestSharded8CP(b *testing.B) { benchIngest(b, 8, 3, 8, ModeCP, true) }
