package exp

import (
	"fmt"
	"time"

	"iiotds/internal/adapter"
	"iiotds/internal/registry"
	"iiotds/internal/trial"
)

// e1Family bundles one protocol family's fixtures.
type e1Family struct {
	name string
	dev  *registry.Device
	emu  adapter.Emulator
	caps []string
	wcap string // a writable capability
}

func e1Fixtures(devicesPerFamily int) (*adapter.Mux, []e1Family) {
	mb := adapter.NewModbusAdapter()
	mbMap := adapter.ModbusMap{
		"temp":     {Register: 100, Scale: 100, Unit: "C"},
		"setpoint": {Register: 101, Scale: 100, Unit: "C", Writable: true},
	}
	mb.RegisterModel("plc-7", mbMap)

	ga := adapter.NewGattAdapter()
	gaMap := adapter.GattMap{
		"humidity": {UUID: 0x2A6F, Unit: "%"},
		"led":      {UUID: 0xFF01, Writable: true},
	}
	ga.RegisterModel("tag-3", gaMap)

	vt := adapter.NewVendorTLVAdapter()
	vtMap := adapter.VendorMap{
		"flow":  {Tag: 'F', Unit: "l/min"},
		"valve": {Tag: 'V', Unit: "%", Writable: true},
	}
	vt.RegisterModel("fm-9", vtMap)

	mux := adapter.NewMux(mb, ga, vt)
	var fams []e1Family
	for i := 0; i < devicesPerFamily; i++ {
		mbDev := &registry.Device{
			ID: registry.DeviceID(fmt.Sprintf("press-%d", i)), Vendor: "Siematic",
			Model: "plc-7", Protocol: adapter.ProtocolModbus,
		}
		fams = append(fams, e1Family{
			name: adapter.ProtocolModbus, dev: mbDev,
			emu:  adapter.NewModbusEmulator(mbMap),
			caps: []string{"temp", "setpoint"}, wcap: "setpoint",
		})
		gaDev := &registry.Device{
			ID: registry.DeviceID(fmt.Sprintf("tag-%d", i)), Vendor: "Nordic-ish",
			Model: "tag-3", Protocol: adapter.ProtocolBLEGatt,
		}
		fams = append(fams, e1Family{
			name: adapter.ProtocolBLEGatt, dev: gaDev,
			emu:  adapter.NewGattEmulator(gaMap),
			caps: []string{"humidity", "led"}, wcap: "led",
		})
		vtDev := &registry.Device{
			ID: registry.DeviceID(fmt.Sprintf("flow-%d", i)), Vendor: "AcmeFluid",
			Model: "fm-9", Protocol: adapter.ProtocolVendorTLV,
		}
		fams = append(fams, e1Family{
			name: adapter.ProtocolVendorTLV, dev: vtDev,
			emu:  adapter.NewVendorTLVEmulator(vtMap),
			caps: []string{"flow", "valve"}, wcap: "valve",
		})
	}
	return mux, fams
}

// E1Interop tests §III's interoperability claim: middleware with a
// canonical model integrates M heterogeneous/legacy protocol families
// with M adapters (instead of M·(M−1) pairwise translators), and the
// translation works in both directions for every family.
func E1Interop(s Scale) *Table {
	perFamily := 5
	rounds := 200
	if s == Full {
		perFamily = 50
		rounds = 2000
	}
	mux, fams := e1Fixtures(perFamily)
	reg := registry.New()
	for _, f := range fams {
		if err := reg.Register(f.dev); err != nil {
			panic(err)
		}
	}

	t := &Table{
		ID:      "E1",
		Title:   "Middleware interoperability across heterogeneous protocol families",
		Claim:   "§III: adapters to a canonical model integrate M families at O(M) cost, including legacy protocols",
		Columns: []string{"family", "devices", "frames decoded", "observations", "commands applied", "errors"},
	}

	type stats struct{ devices, frames, obs, cmds, errs int }
	// One trial per family fixture: each owns its emulator, and the mux's
	// adapter tables are immutable once built, so the trials fan out
	// cleanly across workers.
	perFam, rs := trial.Sweep(fams, func(_ *trial.Trial, f e1Family) stats {
		var st stats
		for r := 0; r < rounds/perFamily; r++ {
			for i, c := range f.caps {
				f.emu.SetState(c, 20+float64(r+i))
			}
			obs, err := mux.Decode(f.dev, f.emu.Frame(), time.Duration(r)*time.Second)
			if err != nil {
				st.errs++
				continue
			}
			st.frames++
			st.obs += len(obs)
			raw, err := mux.EncodeCommand(f.dev, registry.Command{
				Device: f.dev.ID, Cap: f.wcap, Value: float64(40 + r),
			})
			if err != nil {
				st.errs++
				continue
			}
			if err := f.emu.Apply(raw); err != nil {
				st.errs++
				continue
			}
			if v, ok := f.emu.State(f.wcap); !ok || v != float64(40+r) {
				st.errs++
				continue
			}
			st.cmds++
		}
		return st
	})
	t.Stats = rs
	perProto := map[string]*stats{}
	for i, f := range fams {
		st, ok := perProto[f.name]
		if !ok {
			st = &stats{}
			perProto[f.name] = st
		}
		st.devices++
		st.frames += perFam[i].frames
		st.obs += perFam[i].obs
		st.cmds += perFam[i].cmds
		st.errs += perFam[i].errs
	}

	totalErrs := 0
	for _, proto := range mux.Protocols() {
		st := perProto[proto]
		t.AddRow(proto, di(st.devices), di(st.frames), di(st.obs), di(st.cmds), di(st.errs))
		totalErrs += st.errs
	}
	m := len(mux.Protocols())
	t.Finding = fmt.Sprintf(
		"%d families × %d devices interoperate through %d adapters (pairwise would need %d translators); %d translation errors",
		m, perFamily, m, m*(m-1), totalErrs)
	return t
}
