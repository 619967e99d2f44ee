package store

import (
	"sync"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/netbuf"
)

// cpState is the CP mode of a Replica: versioned keys and series, and
// the quorum rounds in flight. A write is applied locally and then
// acknowledged by a majority; a read takes the freshest answer among a
// majority; either fails with ErrUnavailable when the majority does not
// answer within QuorumTimeout.
type cpState struct {
	mu      sync.Mutex
	kv      map[string]versioned
	series  map[string]*cpSeries
	segSize int
	nextReq uint64
	pending map[uint64]*pendingOp
}

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

// pendingOp is one quorum round in flight.
type pendingOp struct {
	needed int
	acks   int
	best   opResult
	done   completion
	cancel clock.CancelFunc
}

func newCPState(segSize int) *cpState {
	return &cpState{
		kv:      make(map[string]versioned),
		series:  make(map[string]*cpSeries),
		segSize: segSize,
		pending: make(map[uint64]*pendingOp),
	}
}

// seriesLocked returns (creating if needed) the state of series name.
func (c *cpState) seriesLocked(name string) *cpSeries {
	st, ok := c.series[name]
	if !ok {
		st = &cpSeries{eng: NewSeriesEngine(c.segSize)}
		c.series[name] = st
	}
	return st
}

// round takes an operation that is done locally — local is this
// replica's own answer — to the quorum: m goes to every peer and done
// fires once, with the freshest answer when a majority has replied or
// with ErrUnavailable when QuorumTimeout passes first. A group of one
// is its own majority: it completes here, allocating nothing.
func (c *cpState) round(r *Replica, m *rpc, local opResult, done completion) {
	needed := r.quorum() - 1
	if needed <= 0 {
		r.finish(done, local, nil)
		return
	}
	c.mu.Lock()
	c.nextReq++
	reqID := c.nextReq
	op := &pendingOp{needed: needed, best: local, done: done}
	c.pending[reqID] = op
	op.cancel = r.sched.Schedule(r.cfg.QuorumTimeout, func() {
		if c.take(reqID) != nil {
			r.finish(done, opResult{}, ErrUnavailable)
		}
	})
	c.mu.Unlock()
	m.ReqID = reqID
	r.broadcast(m)
}

// take removes and returns the round reqID names; nil when it has
// already completed or never existed, which makes completion happen
// once.
func (c *cpState) take(reqID uint64) *pendingOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.pending[reqID]
	delete(c.pending, reqID)
	return op
}

// reply counts one peer's answer to a round and completes the round
// when it is the one that makes the majority.
func (c *cpState) reply(r *Replica, m *rpc) {
	c.mu.Lock()
	op, ok := c.pending[m.ReqID]
	if !ok { // late (the round timed out) or unknown
		c.mu.Unlock()
		return
	}
	op.acks++
	if m.Ver > op.best.ver {
		op.best = opResult{ver: m.Ver, val: m.Val, pts: m.Pts}
	}
	finished := op.acks >= op.needed
	if finished {
		delete(c.pending, m.ReqID)
		op.cancel()
	}
	c.mu.Unlock()
	if finished {
		r.finish(op.done, op.best, nil)
	}
}

func (c *cpState) put(r *Replica, key string, val []byte, done errDone) {
	c.mu.Lock()
	ver := c.kv[key].Ver + 1
	c.kv[key] = versioned{Val: netbuf.CloneBytes(val), Ver: ver}
	c.mu.Unlock()
	c.round(r, &rpc{Kind: kindWrite, Key: key, Val: val, Ver: ver}, opResult{}, done)
}

func (c *cpState) get(r *Replica, key string, done valDone) {
	c.mu.Lock()
	local := c.kv[key]
	c.mu.Unlock()
	c.round(r, &rpc{Kind: kindRead, Key: key}, opResult{ver: local.Ver, val: local.Val}, done)
}

// appendPoints applies the batch here and replicates it. Appends for a
// given series must all originate at one coordinator replica (the
// sharded store routes them through replica 0 of the owning shard).
func (c *cpState) appendPoints(r *Replica, series string, pts []Point, done errDone) {
	c.mu.Lock()
	st := c.seriesLocked(series)
	st.ver++
	ver := st.ver
	st.eng.AppendBatch(pts)
	c.mu.Unlock()
	c.round(r, &rpc{Kind: kindAppend, Key: series, Ver: ver, Pts: pts}, opResult{}, done)
}

func (c *cpState) rangeSeries(r *Replica, series string, from, to time.Duration, done ptsDone) {
	c.mu.Lock()
	st := c.seriesLocked(series)
	local := opResult{ver: st.ver, pts: st.eng.Range(from, to)}
	c.mu.Unlock()
	c.round(r, &rpc{Kind: kindRange, Key: series, From: from, To: to}, local, done)
}

// repair pushes the full series state to every peer (peers adopt any
// series with a higher version), in sorted order for determinism.
func (c *cpState) repair(r *Replica) {
	c.mu.Lock()
	pushes := make([]rpc, 0, len(c.series))
	for _, name := range sortedKeys(c.series) {
		st := c.series[name]
		pushes = append(pushes, rpc{Kind: kindSyncReply, Key: name, Ver: st.ver, Pts: st.eng.AppendRange(nil, minTime, maxTime)})
	}
	c.mu.Unlock()
	for i := range pushes {
		r.broadcast(&pushes[i])
	}
}

// onMessage serves a peer's request or counts its reply.
func (c *cpState) onMessage(r *Replica, from string, data []byte) {
	m, err := parseRPC(data)
	if err != nil {
		return
	}
	switch m.Kind {
	case kindWrite:
		c.mu.Lock()
		if m.Ver > c.kv[m.Key].Ver {
			c.kv[m.Key] = versioned{Val: m.Val, Ver: m.Ver}
		}
		c.mu.Unlock()
		r.send(from, &rpc{Kind: kindWriteAck, ReqID: m.ReqID, Key: m.Key, OK: true})
	case kindRead:
		c.mu.Lock()
		cur := c.kv[m.Key]
		c.mu.Unlock()
		r.send(from, &rpc{Kind: kindReadReply, ReqID: m.ReqID, Key: m.Key, Val: cur.Val, Ver: cur.Ver, OK: true})
	case kindAppend:
		c.mu.Lock()
		st := c.seriesLocked(m.Key)
		gap := m.Ver > st.ver+1
		if m.Ver == st.ver+1 { // contiguous: apply
			st.eng.AppendBatch(m.Pts)
			st.ver = m.Ver
		}
		c.mu.Unlock()
		if gap {
			// This replica missed batches across a partition: catch up
			// via full-series sync instead of acking.
			r.send(from, &rpc{Kind: kindSync, Key: m.Key})
		} else { // applied now, or a duplicate of an applied batch
			r.send(from, &rpc{Kind: kindAppendAck, ReqID: m.ReqID, Key: m.Key, OK: true})
		}
	case kindRange:
		c.mu.Lock()
		st := c.seriesLocked(m.Key)
		ver := st.ver
		pts := st.eng.Range(m.From, m.To)
		c.mu.Unlock()
		r.send(from, &rpc{Kind: kindRangeReply, ReqID: m.ReqID, Key: m.Key, Ver: ver, Pts: pts, OK: true})
	case kindSync:
		c.mu.Lock()
		st := c.seriesLocked(m.Key)
		ver := st.ver
		pts := st.eng.AppendRange(nil, minTime, maxTime)
		c.mu.Unlock()
		r.send(from, &rpc{Kind: kindSyncReply, Key: m.Key, Ver: ver, Pts: pts})
	case kindSyncReply:
		c.mu.Lock()
		st := c.seriesLocked(m.Key)
		if m.Ver > st.ver { // remote is strictly fresher: adopt its history
			st.eng = NewSeriesEngine(c.segSize)
			st.eng.AppendBatch(m.Pts)
			st.ver = m.Ver
		}
		c.mu.Unlock()
	case kindWriteAck, kindReadReply, kindAppendAck, kindRangeReply:
		c.reply(r, &m)
	}
}

func (c *cpState) localValue(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return netbuf.CloneBytes(c.kv[key].Val)
}

func (c *cpState) localSeriesRange(series string, from, to time.Duration) []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.series[series]; ok {
		return st.eng.Range(from, to)
	}
	return nil
}

func (c *cpState) visitEngines(fn func(name string, eng *SeriesEngine)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, st := range c.series {
		fn(name, st.eng)
	}
}

// digest folds the canonical engine streams into h — single writer,
// same order everywhere — series in sorted order. One work buffer
// serves every series an engine digest has to sort.
func (c *cpState) digest(h uint64) uint64 {
	w := workPool.Get().(*work)
	defer workPool.Put(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range sortedKeys(c.series) {
		h = digestString(h, name)
		h = c.series[name].eng.digest(h, w)
	}
	return h
}

func (c *cpState) setMergeHook(func(series string, added int)) {} // nothing merges in CP
