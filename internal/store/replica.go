package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/crdt"
	"iiotds/internal/gossip"
	"iiotds/internal/netbuf"
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

// versioned is a CP-mode stored value.
type versioned struct {
	Val []byte
	Ver uint64
}

// cpSeries is one CP-mode time series: version = accepted append
// batches from the series' single coordinator (Sharded routes every
// append for a series through replica 0 of its shard, so versions are
// totally ordered and a gap can only mean a missed batch across a
// partition — which triggers a full-series sync).
type cpSeries struct {
	ver uint64
	eng *SeriesEngine
}

// pendingOp collects quorum responses.
type pendingOp struct {
	needed  int
	acks    int
	bestVer uint64
	bestVal []byte
	bestPts []Point
	done    func(val []byte, err error)
	donePts func(pts []Point, err error)
	cancel  clock.CancelFunc
}

func (op *pendingOp) complete(err error) {
	if op.donePts != nil {
		op.donePts(op.bestPts, err)
		return
	}
	op.done(op.bestVal, err)
}

// Replica is one node of the replicated store: a key-value map (the
// original E9 surface) plus the partitioned time-series ingest surface
// (AppendPoints/RangeSeries) the sharded store builds on.
type Replica struct {
	cfg   ReplicaConfig
	msg   gossip.Messenger
	sched clock.Scheduler
	id    crdt.ReplicaID

	mu      sync.Mutex
	cp      map[string]versioned
	cpTS    map[string]*cpSeries
	ap      *apState
	engine  *gossip.Engine
	nextReq uint64
	pending map[uint64]*pendingOp

	// Stats for the CAP experiment.
	OpsOK     int
	OpsFailed int
}

// NewReplica creates a replica named by msg.Self().
func NewReplica(msg gossip.Messenger, sched clock.Scheduler, cfg ReplicaConfig) *Replica {
	cfg.applyDefaults()
	r := &Replica{
		cfg:     cfg,
		msg:     msg,
		sched:   sched,
		id:      crdt.ReplicaID(msg.Self()),
		cp:      make(map[string]versioned),
		cpTS:    make(map[string]*cpSeries),
		ap:      newAPState(cfg.SegmentSize),
		pending: make(map[uint64]*pendingOp),
	}
	if cfg.Mode == ModeAP {
		r.engine = gossip.New(msg, sched, r.ap, cfg.Gossip)
		r.engine.Start()
	} else {
		msg.SetReceiver(r.onCPMessage)
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
func (r *Replica) SetMergeHook(fn func(series string, added int)) {
	r.ap.mu.Lock()
	r.ap.onMerge = fn
	r.ap.mu.Unlock()
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
	if r.cfg.Mode == ModeAP {
		r.ap.setLocal(r.id, key, int64(r.sched.Now()), val)
		r.mu.Lock()
		r.OpsOK++
		r.mu.Unlock()
		if done != nil {
			done(nil)
		}
		return
	}
	r.mu.Lock()
	r.nextReq++
	reqID := r.nextReq
	ver := r.cp[key].Ver + 1
	r.cp[key] = versioned{Val: netbuf.CloneBytes(val), Ver: ver}
	op := &pendingOp{needed: r.quorum() - 1, done: func(_ []byte, err error) {
		r.finishOp(err == nil)
		if done != nil {
			done(err)
		}
	}}
	if op.needed <= 0 {
		delete(r.pending, reqID)
		r.mu.Unlock()
		r.finishOp(true)
		if done != nil {
			done(nil)
		}
		return
	}
	r.pending[reqID] = op
	op.cancel = r.sched.Schedule(r.cfg.QuorumTimeout, func() { r.timeoutOp(reqID) })
	r.mu.Unlock()

	r.broadcast(&rpc{Kind: kindWrite, ReqID: reqID, Key: key, Val: val, Ver: ver})
}

// Get reads key. done receives the value (nil if absent) or
// ErrUnavailable in CP mode without quorum.
func (r *Replica) Get(key string, done func(val []byte, err error)) {
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		var val []byte
		if reg, ok := r.ap.regs[key]; ok {
			val = netbuf.CloneBytes(reg.Value())
		}
		r.ap.mu.Unlock()
		r.mu.Lock()
		r.OpsOK++
		r.mu.Unlock()
		done(val, nil)
		return
	}
	r.mu.Lock()
	r.nextReq++
	reqID := r.nextReq
	local := r.cp[key]
	op := &pendingOp{
		needed:  r.quorum() - 1,
		bestVer: local.Ver,
		bestVal: local.Val,
		done: func(val []byte, err error) {
			r.finishOp(err == nil)
			done(val, err)
		},
	}
	if op.needed <= 0 {
		delete(r.pending, reqID)
		r.mu.Unlock()
		r.finishOp(true)
		done(local.Val, nil)
		return
	}
	r.pending[reqID] = op
	op.cancel = r.sched.Schedule(r.cfg.QuorumTimeout, func() { r.timeoutOp(reqID) })
	r.mu.Unlock()

	r.broadcast(&rpc{Kind: kindRead, ReqID: reqID, Key: key})
}

// cpSeriesLocked returns (creating if needed) the CP state for series.
// Caller holds r.mu.
func (r *Replica) cpSeriesLocked(series string) *cpSeries {
	st, ok := r.cpTS[series]
	if !ok {
		st = &cpSeries{eng: NewSeriesEngine(r.cfg.SegmentSize)}
		r.cpTS[series] = st
	}
	return st
}

// AppendPoints ingests a batch into series. In AP mode the batch lands
// in this replica's origin log (gossip spreads it); in CP mode it is
// applied locally and quorum-acknowledged — done receives
// ErrUnavailable when a majority cannot be reached. CP appends for a
// given series must all originate at one coordinator replica (the
// sharded store routes them through replica 0 of the owning shard).
// The batch is not retained.
func (r *Replica) AppendPoints(series string, pts []Point, done func(err error)) {
	if len(pts) == 0 {
		if done != nil {
			done(nil)
		}
		return
	}
	if r.cfg.Mode == ModeAP {
		r.ap.appendLocal(r.id, series, pts)
		r.mu.Lock()
		r.OpsOK++
		r.mu.Unlock()
		if done != nil {
			done(nil)
		}
		return
	}
	r.mu.Lock()
	st := r.cpSeriesLocked(series)
	st.ver++
	ver := st.ver
	st.eng.AppendBatch(pts)
	needed := r.quorum() - 1
	if needed <= 0 { // single replica: no quorum round, no op allocation
		r.mu.Unlock()
		r.finishOp(true)
		if done != nil {
			done(nil)
		}
		return
	}
	r.nextReq++
	reqID := r.nextReq
	op := &pendingOp{needed: needed, done: func(_ []byte, err error) {
		r.finishOp(err == nil)
		if done != nil {
			done(err)
		}
	}}
	r.pending[reqID] = op
	op.cancel = r.sched.Schedule(r.cfg.QuorumTimeout, func() { r.timeoutOp(reqID) })
	r.mu.Unlock()

	r.broadcast(&rpc{Kind: kindAppend, ReqID: reqID, Key: series, Ver: ver, Pts: pts})
}

// RangeSeries reads the points with from <= T < to. In AP mode the
// local merged view answers immediately; in CP mode a quorum is read
// and the freshest replica's answer (highest series version) wins —
// done receives ErrUnavailable when a majority cannot be reached.
func (r *Replica) RangeSeries(series string, from, to time.Duration, done func(pts []Point, err error)) {
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		var pts []Point
		if ser, ok := r.ap.series[series]; ok {
			pts = ser.eng.Range(from, to)
		}
		r.ap.mu.Unlock()
		r.mu.Lock()
		r.OpsOK++
		r.mu.Unlock()
		done(pts, nil)
		return
	}
	r.mu.Lock()
	r.nextReq++
	reqID := r.nextReq
	st := r.cpSeriesLocked(series)
	op := &pendingOp{
		needed:  r.quorum() - 1,
		bestVer: st.ver,
		bestPts: st.eng.Range(from, to),
		donePts: func(pts []Point, err error) {
			r.finishOp(err == nil)
			done(pts, err)
		},
	}
	if op.needed <= 0 {
		local := op.bestPts
		delete(r.pending, reqID)
		r.mu.Unlock()
		r.finishOp(true)
		done(local, nil)
		return
	}
	r.pending[reqID] = op
	op.cancel = r.sched.Schedule(r.cfg.QuorumTimeout, func() { r.timeoutOp(reqID) })
	r.mu.Unlock()

	r.broadcast(&rpc{Kind: kindRange, ReqID: reqID, Key: series, From: from, To: to})
}

// Repair pushes this replica's full CP series state to every peer
// (peers adopt any series with a higher version). The sharded store
// calls it after partitions heal so CP shards reconverge even when no
// further appends arrive; AP shards reconverge via gossip and ignore
// it. Series are pushed in sorted order for determinism.
func (r *Replica) Repair() {
	if r.cfg.Mode != ModeCP {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.cpTS))
	for name := range r.cpTS {
		names = append(names, name)
	}
	sort.Strings(names)
	type push struct {
		name string
		ver  uint64
		pts  []Point
	}
	pushes := make([]push, 0, len(names))
	for _, name := range names {
		st := r.cpTS[name]
		pushes = append(pushes, push{name: name, ver: st.ver, pts: st.eng.AppendRange(nil, minTime, maxTime)})
	}
	r.mu.Unlock()
	for _, p := range pushes {
		r.broadcast(&rpc{Kind: kindSyncReply, Key: p.name, Ver: p.ver, Pts: p.pts})
	}
}

func (r *Replica) finishOp(ok bool) {
	r.mu.Lock()
	if ok {
		r.OpsOK++
	} else {
		r.OpsFailed++
	}
	r.mu.Unlock()
}

func (r *Replica) timeoutOp(reqID uint64) {
	r.mu.Lock()
	op, ok := r.pending[reqID]
	if ok {
		delete(r.pending, reqID)
	}
	r.mu.Unlock()
	if ok {
		op.bestVal, op.bestPts = nil, nil
		op.complete(ErrUnavailable)
	}
}

func (r *Replica) onCPMessage(from string, data []byte) {
	m, err := parseRPC(data)
	if err != nil {
		return
	}
	switch m.Kind {
	case kindWrite:
		r.mu.Lock()
		cur := r.cp[m.Key]
		if m.Ver > cur.Ver {
			r.cp[m.Key] = versioned{Val: m.Val, Ver: m.Ver}
		}
		r.mu.Unlock()
		r.send(from, &rpc{Kind: kindWriteAck, ReqID: m.ReqID, Key: m.Key, OK: true})
	case kindRead:
		r.mu.Lock()
		cur := r.cp[m.Key]
		r.mu.Unlock()
		r.send(from, &rpc{Kind: kindReadReply, ReqID: m.ReqID, Key: m.Key, Val: cur.Val, Ver: cur.Ver, OK: true})
	case kindAppend:
		r.mu.Lock()
		st := r.cpSeriesLocked(m.Key)
		switch {
		case m.Ver == st.ver+1: // contiguous: apply and ack
			st.eng.AppendBatch(m.Pts)
			st.ver = m.Ver
			r.mu.Unlock()
			r.send(from, &rpc{Kind: kindAppendAck, ReqID: m.ReqID, Key: m.Key, OK: true})
		case m.Ver <= st.ver: // duplicate of an applied batch: ack, don't re-apply
			r.mu.Unlock()
			r.send(from, &rpc{Kind: kindAppendAck, ReqID: m.ReqID, Key: m.Key, OK: true})
		default: // gap: this replica missed batches across a partition —
			// catch up via full-series sync instead of acking
			r.mu.Unlock()
			r.send(from, &rpc{Kind: kindSync, Key: m.Key})
		}
	case kindRange:
		r.mu.Lock()
		st := r.cpSeriesLocked(m.Key)
		ver := st.ver
		pts := st.eng.Range(m.From, m.To)
		r.mu.Unlock()
		r.send(from, &rpc{Kind: kindRangeReply, ReqID: m.ReqID, Key: m.Key, Ver: ver, Pts: pts, OK: true})
	case kindSync:
		r.mu.Lock()
		st := r.cpSeriesLocked(m.Key)
		ver := st.ver
		pts := st.eng.AppendRange(nil, minTime, maxTime)
		r.mu.Unlock()
		r.send(from, &rpc{Kind: kindSyncReply, Key: m.Key, Ver: ver, Pts: pts})
	case kindSyncReply:
		r.mu.Lock()
		st := r.cpSeriesLocked(m.Key)
		if m.Ver > st.ver { // remote is strictly fresher: adopt its history
			eng := NewSeriesEngine(r.cfg.SegmentSize)
			eng.AppendBatch(m.Pts)
			st.eng = eng
			st.ver = m.Ver
		}
		r.mu.Unlock()
	case kindWriteAck, kindReadReply, kindAppendAck, kindRangeReply:
		r.mu.Lock()
		op, ok := r.pending[m.ReqID]
		if !ok {
			r.mu.Unlock()
			return
		}
		op.acks++
		if m.Kind == kindReadReply && m.Ver > op.bestVer {
			op.bestVer = m.Ver
			op.bestVal = m.Val
		}
		if m.Kind == kindRangeReply && m.Ver > op.bestVer {
			op.bestVer = m.Ver
			op.bestPts = m.Pts
		}
		finished := op.acks >= op.needed
		if finished {
			delete(r.pending, m.ReqID)
			if op.cancel != nil {
				op.cancel()
			}
		}
		r.mu.Unlock()
		if finished {
			op.complete(nil)
		}
	}
}

// LocalValue returns the replica's local view of key (either mode),
// bypassing quorum — used to check convergence in experiments.
func (r *Replica) LocalValue(key string) []byte {
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		defer r.ap.mu.Unlock()
		if reg, ok := r.ap.regs[key]; ok {
			return netbuf.CloneBytes(reg.Value())
		}
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return netbuf.CloneBytes(r.cp[key].Val)
}

// LocalSeriesRange returns the replica's local view of series points
// with from <= T < to, bypassing quorum — convergence checks and the
// scenario invariant read this.
func (r *Replica) LocalSeriesRange(series string, from, to time.Duration) []Point {
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		defer r.ap.mu.Unlock()
		if ser, ok := r.ap.series[series]; ok {
			return ser.eng.Range(from, to)
		}
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.cpTS[series]; ok {
		return st.eng.Range(from, to)
	}
	return nil
}

// SeriesNames returns the locally known series, sorted.
func (r *Replica) SeriesNames() []string {
	var names []string
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		for name := range r.ap.series {
			names = append(names, name)
		}
		r.ap.mu.Unlock()
	} else {
		r.mu.Lock()
		for name := range r.cpTS {
			names = append(names, name)
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// SeriesDigest folds the replica's time-series state into one hash;
// equal digests across a replica group mean the group has converged.
// AP hashes the CRDT origin logs (the authoritative state — merged
// engines may order equal timestamps differently per replica); CP
// hashes the canonical engine streams (single writer, same order
// everywhere).
func (r *Replica) SeriesDigest() uint64 {
	h := uint64(fnvOffset)
	if r.cfg.Mode == ModeAP {
		return r.ap.digest(h)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.cpTS))
	for name := range r.cpTS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h = digestString(h, name)
		h = r.cpTS[name].eng.digest(h)
	}
	return h
}

// SeriesStats sums the engine counters across the replica's series.
func (r *Replica) SeriesStats() EngineStats {
	var sum EngineStats
	add := func(st EngineStats) {
		sum.Points += st.Points
		sum.Retained += st.Retained
		sum.OutOfOrder += st.OutOfOrder
		sum.OpenPoints += st.OpenPoints
		sum.ClosedSegs += st.ClosedSegs
		sum.SegsClosed += st.SegsClosed
		sum.Compactions += st.Compactions
		sum.Evicted += st.Evicted
		sum.Bytes += st.Bytes
	}
	for _, eng := range r.seriesEngines() {
		add(eng.Stats())
	}
	return sum
}

// FlushSeries closes every open head so buffered points reach encoded
// segments.
func (r *Replica) FlushSeries() {
	for _, eng := range r.seriesEngines() {
		eng.Flush()
	}
}

// CompactSeries force-merges every series' closed segments.
func (r *Replica) CompactSeries() {
	for _, eng := range r.seriesEngines() {
		eng.Compact()
	}
}

// seriesEngines snapshots the replica's engines in sorted series order.
func (r *Replica) seriesEngines() []*SeriesEngine {
	var names []string
	byName := make(map[string]*SeriesEngine)
	if r.cfg.Mode == ModeAP {
		r.ap.mu.Lock()
		for name, ser := range r.ap.series {
			names = append(names, name)
			byName[name] = ser.eng
		}
		r.ap.mu.Unlock()
	} else {
		r.mu.Lock()
		for name, st := range r.cpTS {
			names = append(names, name)
			byName[name] = st.eng
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	engines := make([]*SeriesEngine, len(names))
	for i, name := range names {
		engines[i] = byName[name]
	}
	return engines
}

// String describes the replica.
func (r *Replica) String() string {
	return fmt.Sprintf("replica(%s, %s)", r.msg.Self(), r.cfg.Mode)
}
