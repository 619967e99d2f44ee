package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
)

// Mode selects the replica's consistency/availability trade-off.
type Mode int

// Available modes.
const (
	// ModeCP is quorum-based: reads and writes require a majority of
	// replicas and fail (ErrUnavailable) in a minority partition —
	// consistent but not available under partition.
	ModeCP Mode = iota
	// ModeAP is CRDT-based: reads and writes always succeed locally and
	// anti-entropy gossip converges replicas when connectivity allows —
	// available but only eventually consistent.
	ModeAP
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeCP {
		return "CP"
	}
	return "AP"
}

// ParseMode parses "cp"/"CP" or "ap"/"AP".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cp", "CP":
		return ModeCP, nil
	case "ap", "AP":
		return ModeAP, nil
	}
	return ModeCP, fmt.Errorf("store: unknown mode %q (want cp or ap)", s)
}

// ErrUnavailable is returned by CP operations that cannot reach a quorum
// — Brewer's CAP trade-off made concrete (paper ref [43]).
var ErrUnavailable = errors.New("store: quorum unavailable")

// ReplicaConfig tunes a replica.
type ReplicaConfig struct {
	Mode Mode
	// ClusterSize is the total number of replicas (for quorum math).
	ClusterSize int
	// QuorumTimeout bounds CP operations (default 2 s).
	QuorumTimeout time.Duration
	// Gossip tunes AP anti-entropy.
	Gossip gossip.Config
	// SegmentSize is the series-engine points-per-segment
	// (0 = DefaultSegmentSize).
	SegmentSize int
}

func (c *ReplicaConfig) applyDefaults() {
	if c.QuorumTimeout == 0 {
		c.QuorumTimeout = 2 * time.Second
	}
	if c.ClusterSize == 0 {
		c.ClusterSize = 1
	}
}

// Time bounds wide enough to cover any retained point; used for
// whole-series ranges (sync, digests).
const (
	minTime = time.Duration(-1 << 62)
	maxTime = time.Duration(1 << 62)
)

// modeState is a replica's consistency mode — the data it holds and how
// an operation on it completes. A Replica has exactly one, chosen in
// NewReplica: *cpState (cp.go) or *apState (ap.go). Operations take the
// replica for what both modes share (identity, clock, messenger, the
// operation tally) and must count themselves there exactly once.
type modeState interface {
	put(r *Replica, key string, val []byte, done errDone)
	get(r *Replica, key string, done valDone)
	appendPoints(r *Replica, series string, pts []Point, done errDone)
	rangeSeries(r *Replica, series string, from, to time.Duration, done ptsDone)
	repair(r *Replica)
	setMergeHook(fn func(series string, added int))

	localValue(key string) []byte
	localSeriesRange(series string, from, to time.Duration) []Point
	// visitEngines calls fn for every series, in no particular order,
	// with the state locked.
	visitEngines(fn func(name string, eng *SeriesEngine))
	// digest folds the series state into h, in an order every replica of
	// the group agrees on.
	digest(h uint64) uint64
}

// opResult is the answer an operation completes with: for a CP read,
// the one with the highest version among the replicas heard from, this
// one included; for an AP read, the local one. Writes carry no answer
// and leave it zero.
type opResult struct {
	ver uint64
	val []byte
	pts []Point
}

// completion receives the outcome of one operation; the three callback
// shapes of the public surface implement it, so an operation carries
// its caller's callback as it is, without a wrapper.
type completion interface {
	complete(res opResult, err error)
}

type (
	errDone func(err error) // may be nil: the caller does not care
	valDone func(val []byte, err error)
	ptsDone func(pts []Point, err error)
)

func (d errDone) complete(_ opResult, err error) {
	if d != nil {
		d(err)
	}
}
func (d valDone) complete(res opResult, err error) { d(res.val, err) }
func (d ptsDone) complete(res opResult, err error) { d(res.pts, err) }

// Replica is one node of the replicated store: a key-value map (the
// original E9 surface) plus the partitioned time-series ingest surface
// (AppendPoints/RangeSeries) the sharded store builds on.
type Replica struct {
	cfg    ReplicaConfig
	msg    gossip.Messenger
	sched  clock.Scheduler
	id     string
	state  modeState
	engine *gossip.Engine // AP anti-entropy; nil in CP

	mu         sync.Mutex // guards the tally
	ok, failed int
}

// NewReplica creates a replica named by msg.Self().
func NewReplica(msg gossip.Messenger, sched clock.Scheduler, cfg ReplicaConfig) *Replica {
	cfg.applyDefaults()
	r := &Replica{cfg: cfg, msg: msg, sched: sched, id: msg.Self()}
	if cfg.Mode == ModeAP {
		ap := newAPState(cfg.SegmentSize)
		r.state = ap
		r.engine = gossip.New(msg, sched, ap, cfg.Gossip)
		r.engine.Start()
	} else {
		cp := newCPState(cfg.SegmentSize)
		r.state = cp
		msg.SetReceiver(func(from string, data []byte) { cp.onMessage(r, from, data) })
	}
	return r
}

// Stop halts background activity.
func (r *Replica) Stop() {
	if r.engine != nil {
		r.engine.Stop()
	}
}

// Mode returns the replica's mode.
func (r *Replica) Mode() Mode { return r.cfg.Mode }

// Gossip returns the AP anti-entropy engine (nil in CP mode).
func (r *Replica) Gossip() *gossip.Engine { return r.engine }

// SetMergeHook registers fn to be called after anti-entropy merges
// points into a series (AP mode only; added is the merged point count).
// The sharded store uses it to emit trace events and metrics.
func (r *Replica) SetMergeHook(fn func(series string, added int)) { r.state.setMergeHook(fn) }

// Ops returns how many operations have completed successfully and how
// many failed (CP quorum loss) — the CAP experiment's availability
// figures.
func (r *Replica) Ops() (ok, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ok, r.failed
}

// finish is the one place an operation completes: it is tallied, then
// its caller hears the outcome.
func (r *Replica) finish(done completion, res opResult, err error) {
	r.mu.Lock()
	if err == nil {
		r.ok++
	} else {
		r.failed++
	}
	r.mu.Unlock()
	done.complete(res, err)
}

// quorum returns the majority size for the configured cluster.
func (r *Replica) quorum() int { return r.cfg.ClusterSize/2 + 1 }

// broadcast sends m to every peer.
func (r *Replica) broadcast(m *rpc) {
	data, release, err := marshalRPC(m)
	if err != nil {
		return
	}
	for _, p := range r.msg.Peers() {
		_ = r.msg.Send(p, data)
	}
	release()
}

// send sends m to one peer.
func (r *Replica) send(to string, m *rpc) {
	data, release, err := marshalRPC(m)
	if err != nil {
		return
	}
	_ = r.msg.Send(to, data)
	release()
}

// Put stores key=val. done receives nil on success or ErrUnavailable.
func (r *Replica) Put(key string, val []byte, done func(err error)) {
	r.state.put(r, key, val, done)
}

// Get reads key. done receives the value (nil if absent) or
// ErrUnavailable in CP mode without quorum.
func (r *Replica) Get(key string, done func(val []byte, err error)) {
	r.state.get(r, key, done)
}

// AppendPoints ingests a batch into series. In AP mode the batch lands
// in this replica's origin log (gossip spreads it); in CP mode it is
// applied locally and quorum-acknowledged — done receives
// ErrUnavailable when a majority cannot be reached. CP appends for a
// given series must all originate at one coordinator replica (the
// sharded store routes them through replica 0 of the owning shard).
// The batch is not retained; an empty one is not an operation.
func (r *Replica) AppendPoints(series string, pts []Point, done func(err error)) {
	if len(pts) == 0 {
		if done != nil {
			done(nil)
		}
		return
	}
	r.state.appendPoints(r, series, pts, done)
}

// RangeSeries reads the points with from <= T < to. In AP mode the
// local merged view answers immediately; in CP mode a quorum is read
// and the freshest replica's answer (highest series version) wins —
// done receives ErrUnavailable when a majority cannot be reached.
func (r *Replica) RangeSeries(series string, from, to time.Duration, done func(pts []Point, err error)) {
	r.state.rangeSeries(r, series, from, to, done)
}

// Repair pushes this replica's full CP series state to every peer
// (peers adopt any series with a higher version). The sharded store
// calls it after partitions heal so CP shards reconverge even when no
// further appends arrive; AP shards reconverge via gossip and ignore
// it.
func (r *Replica) Repair() { r.state.repair(r) }

// LocalValue returns the replica's local view of key (either mode),
// bypassing quorum — used to check convergence in experiments.
func (r *Replica) LocalValue(key string) []byte { return r.state.localValue(key) }

// LocalSeriesRange returns the replica's local view of series points
// with from <= T < to, bypassing quorum — convergence checks and the
// scenario invariant read this.
func (r *Replica) LocalSeriesRange(series string, from, to time.Duration) []Point {
	return r.state.localSeriesRange(series, from, to)
}

// SeriesNames returns the locally known series, sorted.
func (r *Replica) SeriesNames() []string {
	var names []string
	r.state.visitEngines(func(name string, _ *SeriesEngine) { names = append(names, name) })
	sort.Strings(names)
	return names
}

// SeriesDigest folds the replica's time-series state into one hash;
// equal digests across a replica group mean the group has converged.
// AP hashes the CRDT origin logs (the authoritative state — merged
// engines may order equal timestamps differently per replica); CP
// hashes the canonical engine streams (single writer, same order
// everywhere).
func (r *Replica) SeriesDigest() uint64 { return r.state.digest(fnvOffset) }

// SeriesStats sums the engine counters across the replica's series.
func (r *Replica) SeriesStats() EngineStats {
	var sum EngineStats
	r.state.visitEngines(func(_ string, eng *SeriesEngine) {
		st := eng.Stats()
		sum.Points += st.Points
		sum.Retained += st.Retained
		sum.OutOfOrder += st.OutOfOrder
		sum.OpenPoints += st.OpenPoints
		sum.ClosedSegs += st.ClosedSegs
		sum.SegsClosed += st.SegsClosed
		sum.Compactions += st.Compactions
		sum.Evicted += st.Evicted
		sum.Bytes += st.Bytes
	})
	return sum
}

// FlushSeries closes every open head so buffered points reach encoded
// segments.
func (r *Replica) FlushSeries() {
	r.state.visitEngines(func(_ string, eng *SeriesEngine) { eng.Flush() })
}

// CompactSeries force-merges every series' closed segments.
func (r *Replica) CompactSeries() {
	r.state.visitEngines(func(_ string, eng *SeriesEngine) { eng.Compact() })
}

// sortedKeys returns m's keys in sorted order — the order anything a
// peer or a digest can observe is produced in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String describes the replica.
func (r *Replica) String() string {
	return fmt.Sprintf("replica(%s, %s)", r.msg.Self(), r.cfg.Mode)
}
