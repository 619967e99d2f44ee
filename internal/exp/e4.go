package exp

import (
	"fmt"
	"math"
	"time"

	"iiotds/internal/trial"
)

// E4Funneling tests §IV-B's funneling claim: the nodes within one hop of
// the border router carry the whole network's traffic under raw
// collection and drain first; in-network aggregation collapses that load
// to one merged record per child per epoch.
func E4Funneling(s Scale) *Table {
	n := 36
	dur := 3 * time.Minute
	if s == Full {
		n = 81
		dur = 10 * time.Minute
	}
	const epoch = 10 * time.Second

	runs, rs := trial.Sweep([]bool{false, true}, func(tr *trial.Trial, useAgg bool) collectStats {
		return runCollection(tr, n, 401, useAgg, epoch, dur)
	})
	raw, ag := runs[0], runs[1]

	t := &Table{
		ID:      "E4",
		Title:   "Load in the border-router funnel: raw collection vs aggregation",
		Claim:   "§IV-B: aggregation + pulling alleviates the heavy load near border routers [30,31]",
		Columns: []string{"mode", "root msgs", "coverage", "ring-1 tx (s)", "max node energy (J)", "datagrams fwd"},
	}
	t.Stats = rs
	t.AddRow("raw-push", di(raw.rootMsgs), pct(raw.coverage), f2(raw.ring1TxTime.Seconds()),
		f2(raw.maxEnergyJ), f1(raw.netDatagrams))
	t.AddRow("aggregate", di(ag.rootMsgs), pct(ag.coverage), f2(ag.ring1TxTime.Seconds()),
		f2(ag.maxEnergyJ), f1(ag.netDatagrams))

	reduction := raw.ring1TxTime.Seconds() / math.Max(ag.ring1TxTime.Seconds(), 1e-9)
	t.Finding = fmt.Sprintf(
		"aggregation cuts ring-1 transmit load %.1fx (%.2fs → %.2fs) at %.0f%% epoch coverage on a %d-node network",
		reduction, raw.ring1TxTime.Seconds(), ag.ring1TxTime.Seconds(), ag.coverage*100, n)
	return t
}
