package store

import (
	"fmt"
	"strconv"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/metrics"
	"iiotds/internal/trace"
)

// Sharded is the partitioned, replicated time-series store: series keys
// are hash-partitioned across P shards, and each shard is an R-replica
// group of store.Replica running under a per-shard consistency policy
// (CP quorum or AP CRDT + gossip anti-entropy). Every append for a
// series is routed through replica 0 of its owning shard — the shard
// coordinator — which is what makes CP version numbers totally ordered
// (see cpSeries).
//
// Each shard gets its own in-memory gossip.Network so replication and
// anti-entropy traffic never crosses shard boundaries; partitions are
// injected per shard (PartitionReplica), mirroring a rack or zone cut
// that splits every replica group the same way.
type Sharded struct {
	sched  clock.Scheduler
	rec    *trace.Recorder
	node   int32
	shards []*Shard
}

// ShardPolicy is the per-shard consistency/replication policy — the
// lifted form of the old per-replica Mode/ClusterSize pair.
type ShardPolicy struct {
	Mode Mode
	// Replicas is the replica-group size R (default 3).
	Replicas int
}

func (p *ShardPolicy) applyDefaults() {
	if p.Replicas == 0 {
		p.Replicas = 3
	}
}

// ShardedConfig tunes the sharded store.
type ShardedConfig struct {
	// Shards is the partition count P (default 1).
	Shards int
	// Policy is the default per-shard policy.
	Policy ShardPolicy
	// PerShard overrides the policy for specific shard indices, so a
	// deployment can keep, say, billing-critical partitions CP while
	// the telemetry firehose runs AP.
	PerShard map[int]ShardPolicy
	// QuorumTimeout bounds CP operations (default 2 s).
	QuorumTimeout time.Duration
	// GossipInterval is the AP anti-entropy period (default 1 s).
	GossipInterval time.Duration
	// Seed derives the per-replica gossip jitter seeds.
	Seed int64
	// Rec, when set, receives LayerStore trace events.
	Rec *trace.Recorder
	// Metrics, when set, receives the store_* counters.
	Metrics *metrics.Registry
	// Node is the trace node ID stamped on store events (-1 for a
	// free-standing store not owned by any simulated node).
	Node int32
}

func (c *ShardedConfig) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = time.Second
	}
	c.Policy.applyDefaults()
}

// Shard is one replica group.
type Shard struct {
	Index    int
	Policy   ShardPolicy
	Net      *gossip.Network
	Replicas []*Replica

	ingestDone func(err error) // default done: counts unavailability

	mBatches *metrics.Counter
	mPoints  *metrics.Counter
	mUnavail *metrics.Counter
	mMerge   *metrics.Counter
	mStale   *metrics.Counter
	mFlush   *metrics.Counter
}

// Coordinator returns the shard's replica 0 — the replica every append
// and quorum read for the shard's series is routed through.
func (sh *Shard) Coordinator() *Replica { return sh.Replicas[0] }

// NewSharded builds the store: P shards × R replicas, each shard on its
// own gossip fabric.
func NewSharded(sched clock.Scheduler, cfg ShardedConfig) *Sharded {
	cfg.applyDefaults()
	s := &Sharded{
		sched:  sched,
		rec:    cfg.Rec,
		node:   cfg.Node,
		shards: make([]*Shard, cfg.Shards),
	}
	for i := range s.shards {
		policy := cfg.Policy
		if over, ok := cfg.PerShard[i]; ok {
			over.applyDefaults()
			policy = over
		}
		sh := &Shard{
			Index:  i,
			Policy: policy,
			Net:    gossip.NewNetwork(),
		}
		if reg := cfg.Metrics; reg != nil {
			lbl := metrics.L("shard", strconv.Itoa(i))
			mode := metrics.L("mode", policy.Mode.String())
			sh.mBatches = reg.CounterWith("store_ingest_batches", lbl, mode)
			sh.mPoints = reg.CounterWith("store_ingest_points", lbl, mode)
			sh.mUnavail = reg.CounterWith("store_unavail_ops", lbl, mode)
			sh.mMerge = reg.CounterWith("store_merge_points", lbl, mode)
			sh.mStale = reg.CounterWith("store_stale_summaries", lbl, mode)
			sh.mFlush = reg.CounterWith("store_flush_points", lbl, mode)
		}
		rcfg := ReplicaConfig{
			Mode:          policy.Mode,
			ClusterSize:   policy.Replicas,
			QuorumTimeout: cfg.QuorumTimeout,
		}
		for j := 0; j < policy.Replicas; j++ {
			port := sh.Net.Attach(fmt.Sprintf("s%d/r%d", i, j))
			rc := rcfg
			rc.Gossip = gossip.Config{
				Interval: cfg.GossipInterval,
				Seed:     cfg.Seed + int64(i*policy.Replicas+j) + 1,
			}
			rep := NewReplica(port, sched, rc)
			if policy.Mode == ModeAP {
				shard := int64(i)
				rep.SetMergeHook(func(_ string, added int) {
					s.rec.Emit(s.node, trace.StoreAntiEntropy, shard, int64(added), 0, 0)
					if sh.mMerge != nil {
						sh.mMerge.Add(float64(added))
					}
				})
				rep.SetStaleHook(func() {
					if sh.mStale != nil {
						sh.mStale.Inc()
					}
				})
			}
			sh.Replicas = append(sh.Replicas, rep)
		}
		shard := int64(i)
		sh.ingestDone = func(err error) {
			if err != nil {
				s.rec.Emit(s.node, trace.StoreUnavail, shard, 0, 0, 0)
				if sh.mUnavail != nil {
					sh.mUnavail.Add(1)
				}
			}
		}
		s.shards[i] = sh
	}
	return s
}

// Stop halts all replicas' background activity.
func (s *Sharded) Stop() {
	for _, sh := range s.shards {
		for _, r := range sh.Replicas {
			r.Stop()
		}
	}
}

// NumShards returns the partition count P.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i.
func (s *Sharded) Shard(i int) *Shard { return s.shards[i] }

// ShardOf routes a series key to its owning shard (FNV-1a hash mod P).
func (s *Sharded) ShardOf(series string) int {
	h := fnvOffset
	for i := 0; i < len(series); i++ {
		h = (h ^ uint64(series[i])) * fnvPrime
	}
	return int(h % uint64(len(s.shards)))
}

// Ingest appends a batch of points to series through its shard
// coordinator. done follows Replica.AppendPoints semantics; when nil, a
// default callback records CP unavailability in the trace/metrics. The
// batch is not retained.
func (s *Sharded) Ingest(series string, pts []Point, done func(err error)) {
	sh := s.shards[s.ShardOf(series)]
	s.rec.Emit(s.node, trace.StoreAppend, int64(sh.Index), int64(len(pts)), 0, 0)
	if sh.mBatches != nil {
		sh.mBatches.Add(1)
		sh.mPoints.Add(float64(len(pts)))
	}
	if done == nil {
		done = sh.ingestDone
	}
	sh.Coordinator().AppendPoints(series, pts, done)
}

// Range reads the points of series with from <= T < to through its
// shard coordinator (quorum freshest-wins in CP, local merged view in
// AP).
func (s *Sharded) Range(series string, from, to time.Duration, done func(pts []Point, err error)) {
	sh := s.shards[s.ShardOf(series)]
	sh.Coordinator().RangeSeries(series, from, to, done)
}

// Flush closes every open series head across all replicas (points
// become encoded segments immediately instead of waiting for a fill).
func (s *Sharded) Flush() {
	for _, sh := range s.shards {
		open := 0
		for _, r := range sh.Replicas {
			open += r.SeriesStats().OpenPoints
			r.FlushSeries()
		}
		if open > 0 {
			s.rec.Emit(s.node, trace.StoreFlush, int64(sh.Index), int64(open), 0, 0)
			if sh.mFlush != nil {
				sh.mFlush.Add(float64(open))
			}
		}
	}
}

// PartitionReplica cuts replica j out of every shard's fabric — the
// zone-cut fault the E16 experiment injects. Partitioning replica 0
// isolates every coordinator (CP ingest goes unavailable); a nonzero j
// leaves quorums intact but forces catch-up on heal.
func (s *Sharded) PartitionReplica(j int) {
	for _, sh := range s.shards {
		if j >= sh.Policy.Replicas {
			continue
		}
		iso := []string{fmt.Sprintf("s%d/r%d", sh.Index, j)}
		rest := make([]string, 0, sh.Policy.Replicas-1)
		for k := 0; k < sh.Policy.Replicas; k++ {
			if k != j {
				rest = append(rest, fmt.Sprintf("s%d/r%d", sh.Index, k))
			}
		}
		sh.Net.SetPartition(iso, rest)
	}
}

// Heal removes all injected partitions.
func (s *Sharded) Heal() {
	for _, sh := range s.shards {
		sh.Net.Heal()
	}
}

// Repair pushes each CP coordinator's full series state to its peers so
// shards that diverged across a partition reconverge even when no
// further appends arrive. AP shards reconverge on their own via gossip.
func (s *Sharded) Repair() {
	for _, sh := range s.shards {
		sh.Coordinator().Repair()
	}
}

// ConvergedShards returns how many shards have all replicas reporting
// equal series digests.
func (s *Sharded) ConvergedShards() int {
	n := 0
	for _, sh := range s.shards {
		if shardConverged(sh.Replicas) {
			n++
		}
	}
	return n
}

// Converged reports whether every shard has converged.
func (s *Sharded) Converged() bool { return s.ConvergedShards() == len(s.shards) }

func shardConverged(replicas []*Replica) bool {
	want := replicas[0].SeriesDigest()
	for _, r := range replicas[1:] {
		if r.SeriesDigest() != want {
			return false
		}
	}
	return true
}

// ShardStats is one shard's point-in-time digest.
type ShardStats struct {
	Mode      Mode
	Replicas  int
	Engine    EngineStats // coordinator's engines (authoritative copy)
	OpsOK     int
	OpsFailed int
}

// ShardedStats aggregates per-shard stats.
type ShardedStats struct {
	Shards []ShardStats
}

// TotalPoints sums the points ever ingested across coordinators.
func (st ShardedStats) TotalPoints() uint64 {
	var n uint64
	for _, s := range st.Shards {
		n += s.Engine.Points
	}
	return n
}

// Stats snapshots every shard.
func (s *Sharded) Stats() ShardedStats {
	out := ShardedStats{Shards: make([]ShardStats, len(s.shards))}
	for i, sh := range s.shards {
		coord := sh.Coordinator()
		ok, failed := coord.Ops()
		out.Shards[i] = ShardStats{
			Mode:      sh.Policy.Mode,
			Replicas:  sh.Policy.Replicas,
			Engine:    coord.SeriesStats(),
			OpsOK:     ok,
			OpsFailed: failed,
		}
	}
	return out
}
