package exp

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/scenario"
)

// collectStats summarizes one collection run.
type collectStats struct {
	n            int
	converged    bool
	coverage     float64       // fraction of node readings represented at the root per epoch
	ring1TxTime  time.Duration // transmit airtime burned by the root's radio neighbors
	meanEnergyJ  float64
	maxEnergyJ   float64
	rootMsgs     int // datagrams the root had to receive per run
	netDatagrams float64
}

// runCollection builds an n-node grid (declared as a scenario spec) and
// collects one reading per node per epoch for dur, either as raw
// per-node pushes or through in-network aggregation. It returns per-run
// statistics. It is one trial: the whole run lives on its own kernel,
// registered with tr for stats aggregation.
func runCollection(tr *Trial, n int, seed int64, useAgg bool, epoch, dur time.Duration) collectStats {
	d := scenario.Build(scenario.Spec{
		Seed: seed,
		Topo: scenario.TopoSpec{Kind: scenario.TopoGrid, N: n},
	}).D
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)
	st := collectStats{n: n}
	ok, _ := d.RunUntilConverged(3 * time.Minute)
	st.converged = ok

	reading := func(n *core.Node) float64 { return 20 + float64(n.ID%10) }
	epochs := 0
	received := 0
	var represented float64
	if useAgg {
		scenario.StartAgg(&d.Fleet, agg.Query{ID: 1, Fn: agg.Avg, Attr: "temp", Epoch: epoch, MaxDepth: 12},
			reading, func(r agg.Result) {
				epochs++
				represented += float64(r.Count)
			})
	} else {
		d.Root().Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
			received++
		})
		scenario.StartPush(&d.Fleet, d.Nodes[1:], lowpan.ProtoRaw, epoch, epoch/4, func(n *core.Node) []byte {
			return binary.BigEndian.AppendUint64(nil, math.Float64bits(reading(n)))
		})
	}

	startTx := ring1TxTime(d)
	d.K.RunFor(dur)

	if useAgg {
		if epochs > 0 {
			st.coverage = represented / float64(epochs) / float64(n-1)
		}
		st.rootMsgs = epochs
	} else {
		st.rootMsgs = received
		sent := float64(n-1) * (float64(dur) / float64(epoch))
		if sent > 0 {
			st.coverage = float64(received) / sent
		}
	}
	st.ring1TxTime = ring1TxTime(d) - startTx
	st.meanEnergyJ = d.M.Energy().MeanTotalJoules()
	_, st.maxEnergyJ = d.M.Energy().MaxTotalJoules()
	st.netDatagrams = d.Reg.Counter("rpl.datagrams_forwarded").Value()
	return st
}

// ring1TxTime sums transmit airtime across the root's radio neighbors —
// the funnel the paper says drains first (§IV-B).
func ring1TxTime(d *core.Deployment) time.Duration {
	var sum time.Duration
	for _, id := range d.M.NeighborsOf(0) {
		sum += d.M.Energy().Ledger(int(id)).Duration(metrics.StateTx)
	}
	return sum
}

// E2SizeScalability tests §IV-A: centralized collection (every node
// pushes raw readings to the border router) degrades as the network
// grows, while decentralized in-network aggregation keeps the root-side
// load per epoch roughly flat.
func E2SizeScalability(s Scale) *Table {
	sizes := []int{16, 36}
	dur := 2 * time.Minute
	if s == Full {
		sizes = []int{16, 36, 64, 100}
		dur = 5 * time.Minute
	}
	const epoch = 10 * time.Second

	t := &Table{
		ID:      "E2",
		Title:   "Centralized vs in-network collection as the network grows",
		Claim:   "§IV-A: sensing-layer functionality must be decentralized; central collection degrades with N",
		Columns: []string{"N", "mode", "root msgs", "ring-1 tx (s)", "mean energy (J)", "max energy (J)"},
	}

	type e2Point struct {
		n      int
		useAgg bool
	}
	var pts []e2Point
	for _, n := range sizes {
		pts = append(pts, e2Point{n, false}, e2Point{n, true})
	}
	runs, rs := Sweep(pts, func(tr *Trial, p e2Point) collectStats {
		return runCollection(tr, p.n, 101, p.useAgg, epoch, dur)
	})
	t.Stats = rs

	type point struct {
		n    int
		raw  collectStats
		aggr collectStats
	}
	var points []point
	for i, n := range sizes {
		raw, ag := runs[2*i], runs[2*i+1]
		points = append(points, point{n, raw, ag})
		t.AddRow(di(n), "raw-push", di(raw.rootMsgs), f2(raw.ring1TxTime.Seconds()), f2(raw.meanEnergyJ), f2(raw.maxEnergyJ))
		t.AddRow(di(n), "aggregate", di(ag.rootMsgs), f2(ag.ring1TxTime.Seconds()), f2(ag.meanEnergyJ), f2(ag.maxEnergyJ))
	}

	first, last := points[0], points[len(points)-1]
	rawGrowth := last.raw.ring1TxTime.Seconds() / math.Max(first.raw.ring1TxTime.Seconds(), 1e-9)
	aggGrowth := last.aggr.ring1TxTime.Seconds() / math.Max(first.aggr.ring1TxTime.Seconds(), 1e-9)
	t.Finding = fmt.Sprintf(
		"growing N %d→%d multiplies ring-1 transmit load by %.1fx under raw push but only %.1fx with in-network aggregation",
		first.n, last.n, rawGrowth, aggGrowth)
	return t
}
