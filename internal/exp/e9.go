package exp

import (
	"bytes"
	"fmt"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/sim"
	"iiotds/internal/store"
	"iiotds/internal/trial"
)

// e9Run exercises one consistency mode through a partition episode.
type e9Run struct {
	mode            store.Mode
	opsBefore       float64 // success rate before the partition
	opsDuring       float64 // success rate during it (all replicas issuing)
	minorityDuring  float64 // success rate of minority-side replicas
	convergedAfter  bool
	convergenceTime time.Duration
}

func runE9(tr *trial.Trial, mode store.Mode, seed int64, opsPerSec int, partitionLen time.Duration) e9Run {
	const n = 5
	k := sim.New(seed)
	tr.Observe(k)
	net := gossip.NewNetwork()
	names := []string{"a", "b", "c", "d", "e"}
	replicas := make([]*store.Replica, n)
	for i, name := range names {
		replicas[i] = store.NewReplica(net.Attach(name), clock.Kernel{K: k}, store.ReplicaConfig{
			Mode:          mode,
			ClusterSize:   n,
			QuorumTimeout: 2 * time.Second,
			Gossip:        gossip.Config{Interval: time.Second, Seed: seed + int64(i)},
		})
	}

	var phase string
	counts := map[string][2]int{} // phase -> {ok, total}
	minority := map[string][2]int{}
	record := func(m map[string][2]int, ph string, ok bool) {
		c := m[ph]
		if ok {
			c[0]++
		}
		c[1]++
		m[ph] = c
	}
	// Every replica writes its own key once per interval and reads a
	// shared key.
	interval := time.Second / time.Duration(opsPerSec)
	for i := range replicas {
		i := i
		k.Every(interval, interval/4, func() {
			ph := phase
			isMinority := i < 2
			replicas[i].Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v@%d", k.Now())), func(err error) {
				record(counts, ph, err == nil)
				if isMinority {
					record(minority, ph, err == nil)
				}
			})
		})
	}

	phase = "before"
	k.RunFor(30 * time.Second)
	phase = "during"
	net.SetPartition([]string{"a", "b"}, []string{"c", "d", "e"})
	k.RunFor(partitionLen)
	phase = "after"
	net.Heal()
	healAt := k.Now()

	// Write one marker through a majority-side replica, then measure
	// how long until every replica's local view holds it (AP) — CP
	// serves it immediately once quorum is back.
	replicas[2].Put("marker", []byte("healed"), nil)
	var converged sim.Time
	k.Every(time.Second, 0, func() {
		if converged != 0 {
			return
		}
		for _, r := range replicas {
			if !bytes.Equal(r.LocalValue("marker"), []byte("healed")) {
				return
			}
		}
		converged = k.Now()
	})
	k.RunFor(time.Minute)

	rate := func(m map[string][2]int, ph string) float64 {
		c := m[ph]
		if c[1] == 0 {
			return 0
		}
		return float64(c[0]) / float64(c[1])
	}
	out := e9Run{
		mode:           mode,
		opsBefore:      rate(counts, "before"),
		opsDuring:      rate(counts, "during"),
		minorityDuring: rate(minority, "during"),
	}
	if converged != 0 {
		out.convergedAfter = true
		out.convergenceTime = converged - healAt
	}
	for _, r := range replicas {
		r.Stop()
	}
	return out
}

// E9Partitions tests §V-C via Brewer's CAP theorem [43]: a quorum (CP)
// store refuses minority-side operations during a partition, while the
// CRDT (AP) store stays fully available everywhere and converges after
// the heal — the design §V-C prescribes for always-on industrial systems.
func E9Partitions(s Scale) *Table {
	partitionLen := time.Minute
	ops := 1
	if s == Full {
		partitionLen = 5 * time.Minute
		ops = 4
	}

	t := &Table{
		ID:      "E9",
		Title:   "Replicated store availability under network partitions",
		Claim:   "§V-C: partition-tolerant always-on operation requires AP designs (eventual consistency + CRDTs) [43,44]",
		Columns: []string{"mode", "ops ok (healthy)", "ops ok (partition)", "minority ops ok", "converged after heal", "convergence"},
	}
	modes := []store.Mode{store.ModeCP, store.ModeAP}
	runs, rs := trial.Sweep(modes, func(tr *trial.Trial, mode store.Mode) e9Run {
		return runE9(tr, mode, 901, ops, partitionLen)
	})
	t.Stats = rs
	var cp, ap e9Run
	for i, mode := range modes {
		r := runs[i]
		conv := "n/a"
		if r.convergedAfter {
			conv = fmt.Sprintf("%.1f s", r.convergenceTime.Seconds())
		}
		t.AddRow(mode.String(), pct(r.opsBefore), pct(r.opsDuring), pct(r.minorityDuring),
			fmt.Sprintf("%v", r.convergedAfter), conv)
		if mode == store.ModeCP {
			cp = r
		} else {
			ap = r
		}
	}
	t.Finding = fmt.Sprintf(
		"during the partition the CP minority served %.0f%% of operations vs AP's %.0f%%; AP replicas reconverged %.1f s after healing",
		cp.minorityDuring*100, ap.minorityDuring*100, ap.convergenceTime.Seconds())
	return t
}
