package exp

import (
	"fmt"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
	"iiotds/internal/store"
	"iiotds/internal/trial"
)

// E16 drives the partitioned time-series store (DESIGN.md §10) through
// a coordinator partition and measures the CAP differential the paper's
// storage discussion predicts: AP shards keep acking every write and
// reconverge by anti-entropy alone, while CP shards refuse writes for
// the duration of the episode and need the post-heal repair push. Every
// mode runs unsharded and at e16Shards partitions.

// e16Shards is the partition count P of the sharded rows.
const e16Shards = 8

// e16Replicas is the replica-group size R for every row. Fixed at 3 so
// a single isolated replica cannot break CP quorum by itself — the
// episode isolates the COORDINATOR, which CP cannot route around.
const e16Replicas = 3

// e16Params sizes one store run.
type e16Params struct {
	mode      store.Mode
	shards    int
	seed      int64
	producers int           // concurrent series
	every     time.Duration // per-series append period
	pre       time.Duration // healthy ingest before the episode
	part      time.Duration // coordinator isolation span
	deadline  time.Duration // post-heal convergence budget
}

// e16Run is one store measurement.
type e16Run struct {
	acked     uint64        // batches acked to producers
	failed    uint64        // batches whose quorum round failed
	opsOK     int           // coordinator ops committed
	opsFailed int           // coordinator ops timed out
	recovered bool          // all shards digest-equal before deadline
	convIn    time.Duration // heal → first all-converged observation
	wall      time.Duration // wall clock for the run (Notes only)
}

// runE16 runs one (mode, shards) cell: batched ingest through a
// per-shard coordinator partition, heal (+ repair push for CP), then a
// poll until every shard's replicas report equal series digests. All
// row cells derive from virtual time and deterministic counters.
func runE16(tr *trial.Trial, p e16Params) e16Run {
	start := time.Now()
	k := sim.New(p.seed)
	tr.Observe(k)
	st := store.NewSharded(clock.Kernel{K: k}, store.ShardedConfig{
		Shards: p.shards,
		Policy: store.ShardPolicy{Mode: p.mode, Replicas: e16Replicas},
		Seed:   p.seed,
		Node:   -1,
	})
	defer st.Stop()

	app := st.NewAppender()
	names := make([]string, p.producers)
	for i := range names {
		names[i] = fmt.Sprintf("plant/line%d/temp", i)
	}

	stopAt := p.pre + p.part
	healAt := stopAt + time.Second
	var reps []*sim.Repeater
	for i := range names {
		name := names[i]
		v := float64(i)
		reps = append(reps, k.Every(p.every, p.every/4, func() {
			app.Append(name, store.Point{T: time.Duration(k.Now()), V: v})
		}))
	}
	reps = append(reps, k.Every(time.Second, 0, func() { app.Flush() }))

	k.At(sim.Time(p.pre), func() { st.PartitionReplica(0) })
	k.At(sim.Time(stopAt), func() {
		for _, r := range reps {
			r.Stop()
		}
		app.Flush()
	})
	k.At(sim.Time(healAt), func() {
		st.Heal()
		st.Repair() // AP no-op; CP pushes the coordinator history
	})
	convIn := time.Duration(-1)
	poll := k.Every(100*time.Millisecond, 0, func() {
		if now := time.Duration(k.Now()); now > healAt && convIn < 0 && st.Converged() {
			convIn = now - healAt
		}
	})
	k.RunFor(sim.Time(healAt + p.deadline))
	poll.Stop()

	out := e16Run{
		acked:     app.Acked(),
		failed:    app.Failed(),
		recovered: convIn >= 0,
		convIn:    convIn,
		wall:      time.Since(start),
	}
	for _, sh := range st.Stats().Shards {
		out.opsOK += sh.OpsOK
		out.opsFailed += sh.OpsFailed
	}
	return out
}

// E16StoreIngest tests the storage-tier claim: a partitioned,
// replicated ingest path whose availability under partition is a
// per-shard policy choice. Every row isolates each shard's coordinator
// mid-ingest and reports what producers observed (acked vs failed
// batches) and how long the healed shard set took to reach digest
// equality. Wall-clock cost goes to Notes.
func E16StoreIngest(s Scale) *Table {
	base := e16Params{
		producers: 8, every: 250 * time.Millisecond,
		pre: 20 * time.Second, part: 20 * time.Second,
		deadline: 60 * time.Second,
	}
	if s == Full {
		base.producers = 32
		base.pre, base.part = time.Minute, time.Minute
	}

	var params []e16Params
	seed := int64(1701)
	for _, mode := range []store.Mode{store.ModeCP, store.ModeAP} {
		for _, shards := range []int{1, e16Shards} {
			p := base
			p.mode, p.shards, p.seed = mode, shards, seed
			seed++
			params = append(params, p)
		}
	}

	t := &Table{
		ID:      "E16",
		Title:   "Partitioned time-series ingest: availability and recovery across AP/CP shards",
		Claim:   "§V-C at the data-storage tier (§II): partition-tolerant ingest needs AP designs — the AP/CP trade is a per-shard policy, with CRDT ingest staying writable where quorum replication refuses writes",
		Columns: []string{"mode", "shards×R", "acked batches", "failed batches", "ops ok/failed", "recovered", "conv after heal"},
	}

	rows, rs := trial.Sweep(params, func(tr *trial.Trial, p e16Params) e16Run {
		return runE16(tr, p)
	})
	t.Stats = rs
	t.Note("engine", fmt.Sprintf("shards=%d replicas=%d", e16Shards, e16Replicas))

	var apFailed, cpFailed uint64
	var apConv, cpConv time.Duration
	for i, r := range rows {
		p := params[i]
		conv := "never"
		if r.recovered {
			conv = fmt.Sprintf("%.1f s", r.convIn.Seconds())
		}
		t.AddRow(p.mode.String(),
			fmt.Sprintf("%d×%d", p.shards, e16Replicas),
			fmt.Sprintf("%d", r.acked),
			fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d/%d", r.opsOK, r.opsFailed),
			fmt.Sprintf("%v", r.recovered),
			conv)
		t.Note(fmt.Sprintf("wall_%s_p%d", p.mode, p.shards), fmt.Sprintf("%.3f s", r.wall.Seconds()))
		if p.shards > 1 {
			if p.mode == store.ModeAP {
				apFailed, apConv = r.failed, r.convIn
			} else {
				cpFailed, cpConv = r.failed, r.convIn
			}
		}
	}

	t.Finding = fmt.Sprintf(
		"with every coordinator isolated mid-ingest, AP shards acked all writes (%d failed) and reconverged by anti-entropy %.1f s after heal, while CP shards refused %d batches for the whole episode and needed the repair push to reconverge (%.1f s) — availability under partition is a shard policy, not a store-wide constant",
		apFailed, apConv.Seconds(), cpFailed, cpConv.Seconds())
	return t
}
