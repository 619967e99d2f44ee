package adapter

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/registry"
)

// fixtures builds one device + emulator per protocol family and a Mux
// with all three adapters configured.
type fixtures struct {
	mux  *Mux
	devs map[string]*registry.Device
	emus map[string]Emulator
}

func newFixtures() *fixtures {
	mb := NewModbusAdapter()
	mbMap := ModbusMap{
		"temp":     {Register: 100, Scale: 100, Unit: "C"},
		"setpoint": {Register: 101, Scale: 100, Unit: "C", Writable: true},
		"rpm":      {Register: 102, Scale: 1, Unit: "rpm"},
	}
	mb.RegisterModel("plc-7", mbMap)
	mbDev := &registry.Device{
		ID: "press-1", Vendor: "Siematic", Model: "plc-7", Protocol: ProtocolModbus,
		Caps: []registry.Capability{
			{Name: "temp", Kind: registry.KindSensor, Unit: "C"},
			{Name: "setpoint", Kind: registry.KindActuator, Unit: "C"},
			{Name: "rpm", Kind: registry.KindSensor, Unit: "rpm"},
		},
	}

	ga := NewGattAdapter()
	gaMap := GattMap{
		"humidity": {UUID: 0x2A6F, Unit: "%"},
		"led":      {UUID: 0xFF01, Unit: "", Writable: true},
	}
	ga.RegisterModel("tag-3", gaMap)
	gaDev := &registry.Device{
		ID: "tag-42", Vendor: "Nordic-ish", Model: "tag-3", Protocol: ProtocolBLEGatt,
		Caps: []registry.Capability{
			{Name: "humidity", Kind: registry.KindSensor, Unit: "%"},
			{Name: "led", Kind: registry.KindActuator},
		},
	}

	vt := NewVendorTLVAdapter()
	vtMap := VendorMap{
		"flow":  {Tag: 'F', Unit: "l/min"},
		"valve": {Tag: 'V', Unit: "%", Writable: true},
	}
	vt.RegisterModel("fm-9", vtMap)
	vtDev := &registry.Device{
		ID: "flow-9", Vendor: "AcmeFluid", Model: "fm-9", Protocol: ProtocolVendorTLV,
		Caps: []registry.Capability{
			{Name: "flow", Kind: registry.KindSensor, Unit: "l/min"},
			{Name: "valve", Kind: registry.KindActuator, Unit: "%"},
		},
	}

	return &fixtures{
		mux:  NewMux(mb, ga, vt),
		devs: map[string]*registry.Device{"modbus": mbDev, "blegatt": gaDev, "vendortlv": vtDev},
		emus: map[string]Emulator{
			"modbus":    NewModbusEmulator(mbMap),
			"blegatt":   NewGattEmulator(gaMap),
			"vendortlv": NewVendorTLVEmulator(vtMap),
		},
	}
}

func TestMuxProtocols(t *testing.T) {
	f := newFixtures()
	got := f.mux.Protocols()
	want := []string{"blegatt", "modbus", "vendortlv"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Protocols = %v", got)
	}
}

func TestDecodeAllFamilies(t *testing.T) {
	f := newFixtures()
	setups := map[string]map[string]float64{
		"modbus":    {"temp": 36.5, "setpoint": 40, "rpm": 900},
		"blegatt":   {"humidity": 55.5, "led": 1},
		"vendortlv": {"flow": 12.25, "valve": 50},
	}
	for proto, states := range setups {
		emu := f.emus[proto]
		for cap, v := range states {
			emu.SetState(cap, v)
		}
		obs, err := f.mux.Decode(f.devs[proto], emu.Frame(), time.Second)
		if err != nil {
			t.Fatalf("%s: Decode: %v", proto, err)
		}
		if len(obs) != len(states) {
			t.Fatalf("%s: got %d observations, want %d", proto, len(obs), len(states))
		}
		for _, o := range obs {
			want := states[o.Cap]
			if math.Abs(o.Value-want) > 0.01 {
				t.Errorf("%s/%s = %v, want %v", proto, o.Cap, o.Value, want)
			}
			if o.Device != f.devs[proto].ID || o.At != time.Second {
				t.Errorf("%s/%s metadata wrong: %+v", proto, o.Cap, o)
			}
		}
	}
}

func TestCommandRoundTripAllFamilies(t *testing.T) {
	f := newFixtures()
	cmds := map[string]registry.Command{
		"modbus":    {Device: "press-1", Cap: "setpoint", Value: 42.5},
		"blegatt":   {Device: "tag-42", Cap: "led", Value: 1},
		"vendortlv": {Device: "flow-9", Cap: "valve", Value: 75},
	}
	for proto, cmd := range cmds {
		raw, err := f.mux.EncodeCommand(f.devs[proto], cmd)
		if err != nil {
			t.Fatalf("%s: EncodeCommand: %v", proto, err)
		}
		if err := f.emus[proto].Apply(raw); err != nil {
			t.Fatalf("%s: Apply: %v", proto, err)
		}
		got, ok := f.emus[proto].State(cmd.Cap)
		if !ok || math.Abs(got-cmd.Value) > 0.01 {
			t.Fatalf("%s: device state = %v (ok=%v), want %v", proto, got, ok, cmd.Value)
		}
	}
}

func TestWriteToReadOnlyCapabilityFails(t *testing.T) {
	f := newFixtures()
	if _, err := f.mux.EncodeCommand(f.devs["modbus"], registry.Command{Cap: "temp", Value: 1}); err == nil {
		t.Fatal("write to read-only register accepted")
	}
	if _, err := f.mux.EncodeCommand(f.devs["blegatt"], registry.Command{Cap: "humidity", Value: 1}); err == nil {
		t.Fatal("write to read-only characteristic accepted")
	}
	if _, err := f.mux.EncodeCommand(f.devs["vendortlv"], registry.Command{Cap: "flow", Value: 1}); err == nil {
		t.Fatal("write to read-only tag accepted")
	}
}

func TestUnknownProtocolAndModel(t *testing.T) {
	f := newFixtures()
	ghost := &registry.Device{ID: "x", Protocol: "dnp3"}
	if _, err := f.mux.Decode(ghost, nil, 0); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	unknownModel := &registry.Device{ID: "y", Protocol: ProtocolModbus, Model: "plc-999"}
	if _, err := f.mux.Decode(unknownModel, []byte{1, 3, 0, 0, 0}, 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	wrong := &registry.Device{ID: "z", Protocol: ProtocolBLEGatt, Model: "plc-7"}
	mb := NewModbusAdapter()
	if _, err := mb.Decode(wrong, nil, 0); err == nil {
		t.Fatal("protocol mismatch accepted")
	}
}

func TestMalformedFramesRejected(t *testing.T) {
	f := newFixtures()
	bad := map[string][][]byte{
		"modbus":    {{}, {1, 3}, {1, 9, 2, 0, 0, 0, 0}, {1, 3, 3, 0, 100, 0}},
		"blegatt":   {{0x6F}, {0x6F, 0x2A, 9, 1}, {0x6F, 0x2A, 2, 1, 2}},
		"vendortlv": {{'F'}, {'F', 9, 'x'}, {'F', 2, 'a', 'b'}},
	}
	for proto, frames := range bad {
		for i, raw := range frames {
			if _, err := f.mux.Decode(f.devs[proto], raw, 0); err == nil {
				t.Errorf("%s frame %d accepted", proto, i)
			}
		}
	}
}

func TestForeignGattCharacteristicSkipped(t *testing.T) {
	f := newFixtures()
	// A TLV for an unmapped UUID followed by a mapped one.
	emu := f.emus["blegatt"]
	emu.SetState("humidity", 40)
	frame := append([]byte{0x01, 0x10, 4, 0, 0, 0, 0}, emu.Frame()...)
	obs, err := f.mux.Decode(f.devs["blegatt"], frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range obs {
		if o.Cap == "humidity" && math.Abs(o.Value-40) < 0.01 {
			found = true
		}
	}
	if !found {
		t.Fatalf("mapped characteristic lost among foreign ones: %+v", obs)
	}
}

func TestPropertyVendorCommandRoundTrip(t *testing.T) {
	f := newFixtures()
	emu := f.emus["vendortlv"]
	check := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		raw, err := f.mux.EncodeCommand(f.devs["vendortlv"], registry.Command{Cap: "valve", Value: v})
		if err != nil {
			return false
		}
		if err := emu.Apply(raw); err != nil {
			return false
		}
		got, ok := emu.State("valve")
		return ok && math.Abs(got-v) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIntegration(t *testing.T) {
	f := newFixtures()
	reg := registry.New()
	for _, d := range f.devs {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register(f.devs["modbus"]); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	byID := map[registry.DeviceID]*registry.Device{}
	for _, d := range reg.All() {
		byID[d.ID] = d
	}
	if len(byID) != 3 || byID["press-1"].Protocol != ProtocolModbus || byID["tag-42"].Vendor != "Nordic-ish" {
		t.Fatalf("All = %v", reg.All())
	}
	o := registry.Observation{Device: "press-1", Cap: "temp"}
	if o.Topic() != "obs/press-1/temp" {
		t.Fatalf("Topic = %q", o.Topic())
	}
}
