package exp

import (
	"fmt"
	"math/rand"
	"time"

	"iiotds/internal/redundancy"
	"iiotds/internal/trial"
)

// E7Redundancy tests §V-A: the three redundancy types each buy
// reliability in their own regime — information redundancy (FEC) without
// extra latency, time redundancy (ARQ) at the price of deadline misses,
// and physical redundancy (replicated sensors) masking faulty readings —
// and their costs differ exactly as the paper warns.
func E7Redundancy(s Scale) *Table {
	trials := 2000
	if s == Full {
		trials = 20000
	}
	lossRates := []float64{0.05, 0.2, 0.4, 0.6}
	const (
		k           = 4                     // FEC data blocks per group
		attemptCost = 40 * time.Millisecond // per-try latency (frame + timeout)
		deadline    = 120 * time.Millisecond
	)

	t := &Table{
		ID:      "E7",
		Title:   "Information vs time vs physical redundancy under loss",
		Claim:   "§V-A: each redundancy type is limited at the sensing layer; time redundancy conflicts with soft-realtime deadlines [42]",
		Columns: []string{"loss", "strategy", "success", "cost", "deadline misses"},
	}

	// One trial per loss rate: each owns its RNG (seeded identically, as
	// the sequential loop did), so the Monte-Carlo sweeps fan out without
	// perturbing each other's random streams.
	type e7Run struct {
		plainRate, fecRate, fecBlocks  float64
		arqRate, arqTries, arqMissRate float64
		physRate                       float64
	}
	runs, rs := trial.Sweep(lossRates, func(_ *trial.Trial, loss float64) e7Run {
		rng := rand.New(rand.NewSource(701))
		lk := redundancy.LinkFunc(func([]byte) bool { return rng.Float64() >= loss })
		var r e7Run

		// Plain: the same payload as the FEC case (k fragments), no
		// redundancy — every fragment must arrive.
		okPlain := 0
		for i := 0; i < trials; i++ {
			all := true
			for j := 0; j < k; j++ {
				if !lk.Try(nil) {
					all = false
				}
			}
			if all {
				okPlain++
			}
		}
		r.plainRate = float64(okPlain) / float64(trials)

		// Information redundancy: k data blocks + 1 parity, single shot.
		okFEC, blocks := 0, 0
		payload := make([]byte, 256)
		for i := 0; i < trials; i++ {
			ok, sent, err := redundancy.SendFEC(lk, payload, k)
			if err != nil {
				panic(err)
			}
			blocks += sent
			if ok {
				okFEC++
			}
		}
		r.fecRate = float64(okFEC) / float64(trials)
		r.fecBlocks = float64(blocks) / float64(trials)

		// Time redundancy: retransmit under a deadline.
		pol := redundancy.ARQPolicy{MaxRetries: 5, AttemptCost: attemptCost, Deadline: deadline}
		okARQ, misses, attempts := 0, 0, 0
		for i := 0; i < trials; i++ {
			ok, att, _, missed := pol.Send(lk, nil)
			attempts += att
			if ok {
				okARQ++
			}
			if missed {
				misses++
			}
		}
		r.arqRate = float64(okARQ) / float64(trials)
		r.arqTries = float64(attempts) / float64(trials)
		r.arqMissRate = float64(misses) / float64(trials)

		// Physical redundancy: 3 replicated sensors, one of which fails
		// to report with probability = loss; the median of survivors
		// masks loss entirely as long as one sensor reports.
		okPhys := 0
		for i := 0; i < trials; i++ {
			readings := []float64{20.1, 20.2, 20.3}
			valid := []bool{rng.Float64() >= loss, rng.Float64() >= loss, rng.Float64() >= loss}
			if _, err := redundancy.VoteMedian(readings, valid, 1); err == nil {
				okPhys++
			}
		}
		r.physRate = float64(okPhys) / float64(trials)
		return r
	})
	t.Stats = rs

	var arqMissAtHighLoss, fecAtHighLoss, plainAtModerateLoss float64
	for i, loss := range lossRates {
		r := runs[i]
		t.AddRow(pct(loss), fmt.Sprintf("none (%d frags)", k), pct(r.plainRate),
			fmt.Sprintf("%d frames", k), "0")
		t.AddRow(pct(loss), fmt.Sprintf("FEC %d+1", k), pct(r.fecRate),
			fmt.Sprintf("%.2f frames", r.fecBlocks), "0")
		t.AddRow(pct(loss), "ARQ ≤120ms", pct(r.arqRate),
			fmt.Sprintf("%.2f tries", r.arqTries),
			pct(r.arqMissRate))
		t.AddRow(pct(loss), "3x sensors", pct(r.physRate), "3 sensors", "0")

		if loss == 0.2 {
			arqMissAtHighLoss = r.arqMissRate
			fecAtHighLoss = r.fecRate
			plainAtModerateLoss = r.plainRate
		}
	}
	t.Finding = fmt.Sprintf(
		"at 20%% loss FEC lifts %d-fragment delivery from %.0f%% to %.0f%% at fixed latency; ARQ reaches higher delivery but misses its 120 ms deadline on %.1f%% of packets — the paper's time-redundancy/deadline conflict (worse at higher loss)",
		4, plainAtModerateLoss*100, fecAtHighLoss*100, arqMissAtHighLoss*100)
	return t
}
