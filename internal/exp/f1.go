package exp

import (
	"fmt"
	"strconv"
	"time"

	"iiotds/internal/coap"
	"iiotds/internal/core"
	"iiotds/internal/radio"
	"iiotds/internal/store"
)

// F1ThreeTier exercises Fig. 1 end to end as one coherent system: a
// sensor on a mesh leaf publishes through CoAP observe; the border
// router hands readings to the backend (replicated store + observe
// gateway); a rule subscribed through the gateway decides and actuates
// a different leaf over CoAP; the storage tier records the series. The
// measurement is the closed-loop sense→decide→actuate latency across
// all three tiers.
func F1ThreeTier(s Scale) *Table {
	rounds := 5
	if s == Full {
		rounds = 20
	}

	// F1's rounds share one deployment, so it is a single trial — wrapped
	// in the runner anyway so its kernel stats are reported like every
	// other experiment's.
	tables, rs := RunTrials(1, func(tr *Trial) *Table {
		return runF1(tr, rounds)
	})
	t := tables[0]
	t.Stats = rs
	return t
}

func runF1(tr *Trial, rounds int) *Table {
	d := core.NewStack(core.Stack{
		Seed:     1201,
		Profiles: []core.Profile{{Name: core.DefaultProfile, WithCoAP: true}},
		Topology: core.Uniform(core.DefaultProfile, radio.GridTopology(16, 15)),
	})
	tr.Observe(d.K)
	tr.ObserveTrace(d.Trace)
	be := d.AttachBackend(store.ShardedConfig{})
	defer be.Close()
	d.RunUntilConverged(3 * time.Minute)

	const (
		sensorNode   = 15 // far corner
		actuatorNode = 12
		series       = "obs/leaf-15/temp"
	)
	// Sensing tier: leaf 15 exposes an observable temperature. All three
	// tiers run on the simulation thread (the gateway fans out inline),
	// so plain variables suffice.
	temp := 20.0
	tempRes := d.Nodes[sensorNode].Server.Resource("sensors/temp").Observable().
		Get(func(string, *coap.Message) *coap.Message {
			return coap.TextResponse(fmt.Sprintf("%.2f", temp))
		})
	// Actuation tier: leaf 12 exposes a vent actuator.
	ventState := "closed"
	var ventChangedAt []time.Duration
	d.Nodes[actuatorNode].Server.Resource("actuators/vent").
		Put(func(_ string, req *coap.Message) *coap.Message {
			ventState = string(req.Payload)
			ventChangedAt = append(ventChangedAt, d.K.Now())
			return &coap.Message{Code: coap.CodeChanged}
		})

	// Border router observes the sensor and hands readings to the
	// backend.
	d.Root().CoAP.Observe(strconv.Itoa(sensorNode), "sensors/temp", func(m *coap.Message, err error) {
		if err != nil {
			return
		}
		var v float64
		if _, e := fmt.Sscanf(string(m.Payload), "%f", &v); e != nil {
			return
		}
		be.Publish(series, store.Point{T: d.K.Now(), V: v})
	})

	// Application tier: a rule opens the vent when temp exceeds 26 °C.
	commanded := 0
	be.Observe(series, func(v float64) {
		want := "closed"
		if v > 26 {
			want = "open"
		}
		if want != ventState {
			commanded++
			d.Root().CoAP.Put(strconv.Itoa(actuatorNode), "actuators/vent",
				coap.FormatText, []byte(want), nil)
		}
	})

	t := &Table{
		ID:      "F1",
		Title:   "Fig. 1 three-tier closed loop: sense → decide → actuate",
		Claim:   "§II: the layered system behaves as a single coherent facility across sensing, logic, and storage tiers",
		Columns: []string{"round", "stimulus", "vent reacted", "loop latency"},
	}

	okRounds := 0
	var latSum time.Duration
	for r := 0; r < rounds; r++ {
		// Alternate hot and normal stimuli.
		hot := r%2 == 0
		if hot {
			temp = 30
		} else {
			temp = 20
		}
		stimulusAt := d.K.Now()
		prevChanges := len(ventChangedAt)
		tempRes.Notify(coap.FormatText, []byte(fmt.Sprintf("%.2f", temp)))
		// The gateway delivers inline on the simulation thread, so the
		// whole loop advances on virtual time alone.
		deadline := d.K.Now() + 2*time.Minute
		for len(ventChangedAt) == prevChanges && d.K.Now() < deadline {
			d.K.RunFor(500 * time.Millisecond)
		}
		reacted := len(ventChangedAt) > prevChanges
		lat := time.Duration(0)
		if reacted {
			lat = ventChangedAt[len(ventChangedAt)-1] - stimulusAt
			okRounds++
			latSum += lat
		}
		t.AddRow(di(r+1), fmt.Sprintf("%.0f°C", temp), fmt.Sprintf("%v", reacted),
			fmt.Sprintf("%.2f s", lat.Seconds()))
	}

	be.Flush()
	stored := 0
	be.Store.Range(series, 0, d.K.Now()+1, func(pts []store.Point, _ error) { stored = len(pts) })
	mean := time.Duration(0)
	if okRounds > 0 {
		mean = latSum / time.Duration(okRounds)
	}
	t.Finding = fmt.Sprintf(
		"%d/%d closed loops completed across all three tiers, mean sense→actuate latency %.2f s (virtual); storage tier recorded %d samples",
		okRounds, rounds, mean.Seconds(), stored)
	return t
}
