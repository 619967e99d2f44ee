// Factory monitoring: a plant telemetry scenario exercising the three-
// tier architecture (Fig. 1) — heterogeneous legacy devices behind
// protocol adapters at the edge, a mesh carrying merged aggregates to
// the border router, an alerting rule subscribed through the observe
// gateway, a replicated time-series storage tier, and automated
// diagnosis (§V-D) replayed over the stored series.
//
//	go run ./examples/factory-monitoring
package main

import (
	"fmt"
	"time"

	"iiotds/internal/adapter"
	"iiotds/internal/agg"
	"iiotds/internal/core"
	"iiotds/internal/diag"
	"iiotds/internal/radio"
	"iiotds/internal/registry"
	"iiotds/internal/store"
)

// monitored lists the series the plant stores, in report order, each
// with its physically plausible range; a reading outside it is a
// component fault, not a process condition.
var monitored = []struct {
	series   string
	min, max float64
}{
	{"obs/mesh/vibration_max", 0, 5},
	{"obs/press-7/bearing_temp", 0, 120},
	{"obs/press-7/rpm", 0, 1500},
}

func main() {
	// The plant floor: 25 mesh nodes monitoring presses and conveyors,
	// all one device class, with the store and gateway tiers behind the
	// border router.
	d := core.NewStack(core.Stack{
		Seed:     7,
		Profiles: []core.Profile{{Name: "zone-sensor"}},
		Topology: core.Uniform("zone-sensor", radio.GridTopology(25, 15)),
	})
	be := d.AttachBackend(store.ShardedConfig{})
	defer be.Close()

	// Legacy integration at the gateway: a Modbus press controller is
	// decoded through its adapter into canonical observations.
	mb := adapter.NewModbusAdapter()
	mbMap := adapter.ModbusMap{
		"bearing_temp": {Register: 200, Scale: 10, Unit: "C"},
		"rpm":          {Register: 201, Scale: 1, Unit: "rpm"},
	}
	mb.RegisterModel("press-ctl", mbMap)
	press := &registry.Device{
		ID: "press-7", Vendor: "Siematic", Model: "press-ctl",
		Protocol: adapter.ProtocolModbus, Tenant: "plant-a",
	}
	pressEmu := adapter.NewModbusEmulator(mbMap)

	// Mesh sensors: vibration per zone.
	for i := 1; i < 25; i++ {
		i := i
		d.Nodes[i].SetSampler(func(attr string) (float64, bool) {
			if attr != "vibration" {
				return 0, false
			}
			v := 1.0 + 0.1*float64(i%5) + d.K.Rand().Float64()*0.2
			if d.K.Now() > 3*time.Minute && i == 13 {
				v += 4 // a bearing starts failing in zone 13
			}
			return v, true
		})
	}

	ok, _ := d.RunUntilConverged(3 * time.Minute)
	fmt.Println("plant mesh converged:", ok)

	// Application tier: alert when zone vibration exceeds threshold.
	alerts := 0
	be.Observe("obs/mesh/vibration_max", func(v float64) {
		if v > 4 {
			alerts++
			fmt.Printf("ALERT: plant vibration max %.2f g — dispatch maintenance\n", v)
		}
	})

	// Border router lifts each epoch's MAX(vibration) into the backend.
	d.Root().Agg.OnResult = func(r agg.Result) {
		be.Publish("obs/mesh/vibration_max", store.Point{T: d.K.Now(), V: r.Value})
	}
	d.Root().Agg.RunQuery(agg.Query{ID: 9, Fn: agg.Max, Attr: "vibration", Epoch: 15 * time.Second, MaxDepth: 10})

	// Poll the legacy press periodically into the same backend.
	d.K.Every(30*time.Second, 0, func() {
		pressEmu.SetState("bearing_temp", 55+10*d.K.Rand().Float64())
		pressEmu.SetState("rpm", 880+40*d.K.Rand().Float64())
		obs, err := mb.Decode(press, pressEmu.Frame(), d.K.Now())
		if err != nil {
			return
		}
		for _, o := range obs {
			be.Publish(o.Topic(), store.Point{T: o.At, V: o.Value})
		}
	})

	// Run one factory shift (compressed).
	for i := 0; i < 6; i++ {
		d.K.RunFor(time.Minute)
	}

	// Range completes inside the call on the in-memory fabric.
	be.Flush()
	var findings []diag.Finding
	fmt.Println("\n--- shift report ---")
	for _, m := range monitored {
		be.Store.Range(m.series, 0, d.K.Now()+1, func(pts []store.Point, err error) {
			if err != nil {
				panic(err) // AP reads are local and cannot fail
			}
			sum := 0.0
			for _, p := range pts {
				sum += p.V
			}
			fmt.Printf("%-28s samples=%-4d mean=%7.2f last=%7.2f\n", m.series, len(pts), sum/float64(len(pts)), pts[len(pts)-1].V)
			// Diagnosis (§V-D) replays the stored series: out-of-range
			// and stuck-at detectors, one engine per physical range.
			eng := diag.NewEngine(m.min, m.max)
			for _, p := range pts {
				eng.Observe(m.series, p.T, p.V, nil)
			}
			findings = append(findings, eng.Findings...)
		})
	}
	fmt.Printf("alerts raised: %d\n", alerts)
	fmt.Printf("network energy: mean %.2f J/node\n", d.M.Energy().MeanTotalJoules())

	fmt.Println("\n--- diagnosis ---")
	for _, f := range findings {
		fmt.Printf("%-28s %-12s at %-6v %s\n", f.Sensor, f.Type, f.At.Truncate(time.Second), f.Detail)
	}
	fmt.Printf("findings: %d\n", len(findings))
}
