package exp

import (
	"fmt"
	"time"

	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trial"
)

// chainLatency measures mean end-to-end latency of packets forwarded hop
// by hop along an (hops+1)-node chain under the given MAC factory, plus
// the per-node radio-on fraction.
func chainLatency(tr *trial.Trial, hops int, seed int64, packets int, mk func(m *radio.Medium, id radio.NodeID, idx, n int) mac.MAC) (mean time.Duration, radioOnFrac float64, delivered int) {
	n := hops + 1
	k := sim.New(seed)
	tr.Observe(k)
	// 18 m spacing: neighbors are reliable, two-hop links are out of
	// range, so the topology is a true chain.
	params := radio.DefaultParams()
	m := radio.NewMedium(k, params, nil)
	tr.ObserveMedium(k, m)
	macs := make([]mac.MAC, n)
	for i := 0; i < n; i++ {
		id := radio.NodeID(i)
		idx := i
		m.Attach(id, radio.Position{X: float64(i) * 18}, radio.ReceiverFunc(func(f radio.Frame) {
			macs[idx].(radio.Receiver).RadioReceive(f)
		}))
	}
	for i := 0; i < n; i++ {
		macs[i] = mk(m, radio.NodeID(i), i, n)
		macs[i].Start()
	}
	// Forward toward node 0.
	for i := 1; i < n; i++ {
		i := i
		macs[i].OnReceive(func(_ radio.NodeID, p []byte) {
			macs[i].Send(radio.NodeID(i-1), p, nil)
		})
	}
	var sentAt []sim.Time
	var total time.Duration
	macs[0].OnReceive(func(_ radio.NodeID, p []byte) {
		idx := int(p[0])
		if idx < len(sentAt) {
			total += k.Now() - sentAt[idx]
			delivered++
		}
	})
	// Let duty-cycle schedules settle, then send spaced packets.
	k.RunFor(5 * time.Second)
	gap := 10 * time.Second
	for p := 0; p < packets; p++ {
		p := p
		k.Schedule(time.Duration(p)*gap, func() {
			sentAt = append(sentAt, k.Now())
			macs[n-1].Send(radio.NodeID(n-2), []byte{byte(p)}, nil)
		})
	}
	start := k.Now()
	k.RunFor(time.Duration(packets)*gap + 30*time.Second)
	if delivered > 0 {
		mean = total / time.Duration(delivered)
	}
	var on time.Duration
	for i := 0; i < n; i++ {
		on += m.Energy().Ledger(i).RadioOn()
	}
	radioOnFrac = float64(on) / float64(n) / float64(k.Now()-start)
	return mean, radioOnFrac, delivered
}

// E3DutyCycleLatency tests §IV-B: with duty-cycled (LPL) MACs, multi-hop
// latency is dominated by wake intervals — seconds over a few hops —
// while a tightly synchronized TDMA pipeline crosses one hop per slot.
func E3DutyCycleLatency(s Scale) *Table {
	hopCounts := []int{2, 4, 8}
	wakes := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond}
	packets := 6
	if s == Full {
		hopCounts = []int{2, 4, 8, 12, 16}
		wakes = []time.Duration{125 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
		packets = 20
	}
	const slot = 10 * time.Millisecond

	t := &Table{
		ID:      "E3",
		Title:   "End-to-end latency over duty-cycled multi-hop paths",
		Claim:   "§IV-B: packets take ~wake/2 per duty-cycled hop (seconds over few hops); synchronized pipelines minimize it",
		Columns: []string{"MAC", "hops", "mean latency", "per hop", "radio-on", "delivered"},
	}

	// Flatten the hops × MAC grid into one trial list so every chain run
	// fans out independently; rows and the finding are derived from the
	// merged results in the original order.
	type e3Point struct {
		label string
		hops  int
		isLPL bool
		mk    func(m *radio.Medium, id radio.NodeID, idx, n int) mac.MAC
	}
	var pts []e3Point
	for _, hops := range hopCounts {
		for _, wake := range wakes {
			w := wake
			pts = append(pts, e3Point{
				label: fmt.Sprintf("LPL w=%v", w), hops: hops, isLPL: true,
				mk: func(m *radio.Medium, id radio.NodeID, idx, n int) mac.MAC {
					return mac.NewLPL(m, id, mac.LPLConfig{WakeInterval: w})
				},
			})
		}
		// RI-MAC: same duty-cycle class as LPL, rendezvous via receiver
		// beacons instead of sender strobes.
		pts = append(pts, e3Point{
			label: "RI-MAC w=500ms", hops: hops,
			mk: func(m *radio.Medium, id radio.NodeID, idx, n int) mac.MAC {
				return mac.NewRIMAC(m, id, mac.RIMACConfig{BeaconInterval: 500 * time.Millisecond})
			},
		})
		// TDMA pipeline: slot i owned by depth maxDepth-i.
		pts = append(pts, e3Point{
			label: "TDMA pipeline", hops: hops,
			mk: func(m *radio.Medium, id radio.NodeID, idx, n int) mac.MAC {
				maxDepth := n - 1
				tx := maxDepth - idx
				var rx []int
				if idx < n-1 {
					rx = []int{maxDepth - idx - 1}
				}
				cfg := mac.TDMAConfig{SlotDuration: slot, SlotsPerEpoch: n, TxSlot: tx, RxSlots: rx}
				if idx == 0 {
					cfg.TxSlot = -1
				}
				return mac.NewTDMA(m, id, cfg)
			},
		})
	}

	type e3Run struct {
		mean time.Duration
		on   float64
		got  int
	}
	runs, rs := trial.Sweep(pts, func(tr *trial.Trial, p e3Point) e3Run {
		mean, on, got := chainLatency(tr, p.hops, 301, packets, p.mk)
		return e3Run{mean, on, got}
	})
	t.Stats = rs

	var lplWorst, tdmaAtWorst time.Duration
	for i, p := range pts {
		r := runs[i]
		t.AddRow(p.label, di(p.hops),
			fmt.Sprintf("%.0f ms", float64(r.mean.Milliseconds())),
			fmt.Sprintf("%.0f ms", float64(r.mean.Milliseconds())/float64(p.hops)),
			pct(r.on), fmt.Sprintf("%d/%d", r.got, packets))
		if p.isLPL && r.mean > lplWorst {
			lplWorst = r.mean
		}
		if p.label == "TDMA pipeline" && p.hops == hopCounts[len(hopCounts)-1] {
			tdmaAtWorst = r.mean
		}
	}
	speedup := float64(lplWorst) / float64(tdmaAtWorst+1)
	t.Finding = fmt.Sprintf(
		"LPL latency grows with hops×wake/2 (worst %.1f s); the synchronized pipeline crosses the longest chain in %.0f ms (~%.0fx faster)",
		lplWorst.Seconds(), float64(tdmaAtWorst.Milliseconds()), speedup)
	return t
}
