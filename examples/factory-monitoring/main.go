// Factory monitoring: a plant telemetry scenario exercising the three-
// tier architecture (Fig. 1) — heterogeneous legacy devices behind
// protocol adapters at the edge, a mesh carrying merged aggregates to
// the border router, a pub/sub application tier with an alerting rule,
// and a time-series storage tier.
//
//	go run ./examples/factory-monitoring
package main

import (
	"fmt"
	"time"

	"iiotds/internal/adapter"
	"iiotds/internal/agg"
	"iiotds/internal/bus"
	"iiotds/internal/core"
	"iiotds/internal/radio"
	"iiotds/internal/registry"
)

func main() {
	// The plant floor: 25 mesh nodes monitoring presses and conveyors,
	// all one device class, plus the broker/storage backend tiers.
	d := core.NewStack(core.Stack{
		Seed:        7,
		Profiles:    []core.Profile{{Name: "zone-sensor"}},
		Topology:    core.Uniform("zone-sensor", radio.GridTopology(25, 15)),
		WithBackend: true,
	})
	defer d.Close()

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
	pressEmu := adapter.NewModbusEmulator(press, mbMap)
	if err := d.Registry.Register(press); err != nil {
		panic(err)
	}

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
	if _, err := d.Bus.Subscribe("obs/mesh/vibration_max", func(m bus.Message) {
		var v float64
		fmt.Sscanf(string(m.Payload), "%f", &v)
		if v > 4 {
			alerts++
			fmt.Printf("ALERT: plant vibration max %.2f g — dispatch maintenance\n", v)
		}
	}); err != nil {
		panic(err)
	}

	// Border router lifts each epoch's MAX(vibration) into the backend.
	d.Root().Agg.OnResult = func(r agg.Result) {
		_ = d.PublishObservation(registry.Observation{
			Device: "mesh", Cap: "vibration_max", Value: r.Value, Unit: "g", At: d.K.Now(),
		})
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
			_ = d.PublishObservation(o)
		}
	})

	// Run one factory shift (compressed).
	for i := 0; i < 6; i++ {
		d.K.RunFor(time.Minute)
	}

	fmt.Println("\n--- shift report ---")
	for _, name := range d.SeriesNames() {
		s := d.Series(name)
		pts := s.Range(0, d.K.Now()+1)
		sum := 0.0
		for _, p := range pts {
			sum += p.V
		}
		last, _ := s.Last()
		fmt.Printf("%-28s samples=%-4d mean=%7.2f last=%7.2f\n", name, len(pts), sum/float64(len(pts)), last.V)
	}
	fmt.Printf("alerts raised: %d\n", alerts)
	fmt.Printf("network energy: mean %.2f J/node\n", d.M.Energy().MeanTotalJoules())
}
