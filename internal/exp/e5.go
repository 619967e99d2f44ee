package exp

import (
	"fmt"
	"math"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/lowpan"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
	"iiotds/internal/scenario"
	"iiotds/internal/sim"
	"iiotds/internal/trial"
)

// e5Result summarizes one detector run.
type e5Result struct {
	detectedFrac   float64       // nodes aware of the failure at the end
	meanDetection  time.Duration // mean time from kill to local awareness
	worstDetection time.Duration
	txFrames       float64 // radio frames spent after the kill
	energyJ        float64 // network energy spent after the kill
}

// runE5 builds an n-node grid, kills the root at killAt, and measures how
// the chosen detector spreads awareness.
func runE5(tr *trial.Trial, n int, seed int64, useRNFD bool, probeEvery time.Duration, suspectTimeout time.Duration, observe time.Duration) e5Result {
	p := core.Profile{Name: core.DefaultProfile}
	if useRNFD {
		p.RNFD = &rpl.RNFDConfig{SuspectTimeout: suspectTimeout, Quorum: 2}
	}
	d := scenario.Build(scenario.Spec{
		Seed:     seed,
		Topo:     scenario.TopoSpec{Kind: scenario.TopoGrid, N: n},
		Profiles: []core.Profile{p},
	}).D
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)
	d.RunUntilConverged(3 * time.Minute)
	// Steady-state warmup before the kill, identical for both detectors.
	// RNFD sentinels qualify on *proven* unicast history to the root
	// (TxCount/ETX gates in rnfd.go); killing the root seconds after
	// convergence leaves only one qualified sentinel — below quorum — so
	// the verdict never fires. Two minutes of DAO/probe traffic lets every
	// root neighbor accumulate that history, matching how a real
	// deployment would have been running long before the failure.
	d.K.RunFor(2 * time.Minute)

	detectedAt := make([]sim.Time, n)
	if !useRNFD {
		// Baseline: every node probes the root end-to-end on its own
		// timer and declares it dead after 3 consecutive unanswered
		// probes — the per-node approach RNFD's parallelism replaces.
		type probeState struct {
			missed  int
			pending bool
		}
		states := make([]probeState, n)
		// Root echoes probes back to their source.
		d.Root().Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
			_ = d.Root().Router.SendTo(src, lowpan.ProtoRaw, payload)
		})
		for i := 1; i < n; i++ {
			st := &states[i]
			d.Nodes[i].Router.Handle(lowpan.ProtoRaw, func(src radio.NodeID, payload []byte) {
				st.pending = false
				st.missed = 0
			})
		}
		d.StartPush(d.Nodes[1:], lowpan.ProtoRaw, probeEvery, probeEvery/4, func(n *core.Node) []byte {
			st := &states[n.ID]
			if detectedAt[n.ID] != 0 || !n.Up() {
				return nil
			}
			if st.pending {
				st.missed++
				if st.missed >= 3 {
					detectedAt[n.ID] = d.K.Now()
					return nil
				}
			}
			st.pending = true
			return []byte{byte(n.ID)}
		})
	}

	killAt := d.K.Now()
	// Detection-specific traffic: the baseline's probes and echoes are
	// the only data-plane datagrams in the run; RNFD's suspicions and
	// verdicts are counted by its own counter. Steady-state routing
	// chatter (DIOs, DAOs) is identical across both runs and excluded.
	detectMsgs := func() float64 {
		if useRNFD {
			return d.Reg.Counter("rnfd.msgs_sent").Value()
		}
		return d.Reg.Counter("rpl.datagrams_forwarded").Value()
	}
	startMsgs := detectMsgs()
	var startEnergy float64
	for i := 0; i < n; i++ {
		startEnergy += d.M.Energy().Ledger(i).TotalJoules()
	}
	d.Crash(0)
	d.K.RunFor(observe)

	res := e5Result{}
	detected := 0
	var sum time.Duration
	for i := 1; i < n; i++ {
		var at sim.Time
		if useRNFD {
			if d.Nodes[i].Router.RootDead() {
				_, at = d.Nodes[i].RNFD.Dead()
			}
		} else {
			at = detectedAt[i]
		}
		if at > 0 {
			detected++
			lat := at - killAt
			sum += lat
			if lat > res.worstDetection {
				res.worstDetection = lat
			}
		}
	}
	res.detectedFrac = float64(detected) / float64(n-1)
	if detected > 0 {
		res.meanDetection = sum / time.Duration(detected)
	}
	res.txFrames = detectMsgs() - startMsgs
	var endEnergy float64
	for i := 0; i < n; i++ {
		endEnergy += d.M.Energy().Ledger(i).TotalJoules()
	}
	res.energyJ = endEnergy - startEnergy
	return res
}

// E5RNFD tests the paper's citation of RNFD [32] (§IV-B): exploiting
// parallelism — sentinels collaboratively watching the border router —
// detects its failure with far less traffic than every node probing the
// root end-to-end, and faster than conservative probe timeouts allow.
func E5RNFD(s Scale) *Table {
	n := 25
	observe := 4 * time.Minute
	if s == Full {
		n = 64
		observe = 6 * time.Minute
	}

	runs, rs := trial.Sweep([]bool{true, false}, func(tr *trial.Trial, useRNFD bool) e5Result {
		if useRNFD {
			return runE5(tr, n, 501, true, 0, 25*time.Second, observe)
		}
		return runE5(tr, n, 501, false, 30*time.Second, 0, observe)
	})
	rnfd, probes := runs[0], runs[1]

	t := &Table{
		ID:      "E5",
		Title:   "Border-router failure detection: collaborative (RNFD) vs per-node probing",
		Claim:   "§IV-B: parallelism improves border-router failure detection efficiency by orders of magnitude [32]",
		Columns: []string{"detector", "aware nodes", "mean detection", "worst detection", "detection msgs", "energy (J)"},
	}
	t.Stats = rs
	t.AddRow("RNFD", pct(rnfd.detectedFrac),
		fmt.Sprintf("%.1f s", rnfd.meanDetection.Seconds()),
		fmt.Sprintf("%.1f s", rnfd.worstDetection.Seconds()),
		f1(rnfd.txFrames), f2(rnfd.energyJ))
	t.AddRow("per-node probes", pct(probes.detectedFrac),
		fmt.Sprintf("%.1f s", probes.meanDetection.Seconds()),
		fmt.Sprintf("%.1f s", probes.worstDetection.Seconds()),
		f1(probes.txFrames), f2(probes.energyJ))

	frameRatio := probes.txFrames / math.Max(rnfd.txFrames, 1)
	t.Finding = fmt.Sprintf(
		"collaborative detection spends %.0fx fewer detection messages than per-node probing (%.0f vs %.0f) and reaches %.0f%% of nodes in %.0f s mean",
		frameRatio, rnfd.txFrames, probes.txFrames, rnfd.detectedFrac*100, rnfd.meanDetection.Seconds())
	return t
}
