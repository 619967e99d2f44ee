package adapter

import (
	"errors"
	"math"
	"testing"
	"time"

	"iiotds/internal/registry"
)

var families = []string{ProtocolModbus, ProtocolBLEGatt, ProtocolVendorTLV}

// writable names each fixture's actuator capability, readOnly its
// sensor; sensorID is the sensor's wire id and foreignID one no fixture
// maps.
var (
	writable  = map[string]string{ProtocolModbus: "setpoint", ProtocolBLEGatt: "led", ProtocolVendorTLV: "valve"}
	readOnly  = map[string]string{ProtocolModbus: "temp", ProtocolBLEGatt: "humidity", ProtocolVendorTLV: "flow"}
	sensorID  = map[string]uint16{ProtocolModbus: 100, ProtocolBLEGatt: 0x2A6F, ProtocolVendorTLV: 'F'}
	foreignID = map[string]uint16{ProtocolModbus: 999, ProtocolBLEGatt: 0x1234, ProtocolVendorTLV: 'Z'}
)

// A value the wire format cannot carry used to be narrowed into a
// different command: 400 °C at scale 100 wrapped to −255.36 °C on
// Modbus, 1e300 became +Inf on GATT, NaN wrote 0.
func TestCommandOutOfRangeRejectedAllFamilies(t *testing.T) {
	f := newFixtures()
	bad := map[string][]float64{
		ProtocolModbus:    {400, -400, 327.68, 1e9, math.NaN(), math.Inf(1), math.Inf(-1)},
		ProtocolBLEGatt:   {1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)},
		ProtocolVendorTLV: {math.NaN(), math.Inf(1), math.Inf(-1)},
	}
	edge := map[string][]float64{
		ProtocolModbus:    {327.67, -327.68, 0},
		ProtocolBLEGatt:   {math.MaxFloat32, -math.MaxFloat32},
		ProtocolVendorTLV: {math.MaxFloat64, -math.MaxFloat64, 5e-324},
	}
	for _, proto := range families {
		dev, emu, cap := f.devs[proto], f.emus[proto], writable[proto]
		emu.SetState(cap, 7)
		for _, v := range bad[proto] {
			raw, err := f.mux.EncodeCommand(dev, registry.Command{Cap: cap, Value: v})
			if !errors.Is(err, ErrBadValue) {
				t.Errorf("%s: EncodeCommand(%v) = %x, %v; want ErrBadValue", proto, v, raw, err)
			}
		}
		if got, _ := emu.State(cap); got != 7 {
			t.Errorf("%s: state moved to %v by refused commands", proto, got)
		}
		for _, v := range edge[proto] {
			raw, err := f.mux.EncodeCommand(dev, registry.Command{Cap: cap, Value: v})
			if err != nil {
				t.Errorf("%s: EncodeCommand(%v): %v", proto, v, err)
				continue
			}
			if err := emu.Apply(raw); err != nil {
				t.Errorf("%s: Apply(%v): %v", proto, v, err)
			}
			if got, _ := emu.State(cap); math.Abs(got-v) > math.Abs(v)*1e-6+0.01 {
				t.Errorf("%s: device reads %v after command %v", proto, got, v)
			}
		}
	}
}

// What the chassis owns behaves the same whichever codec is plugged in.
func TestFamiliesShareChassisBehaviour(t *testing.T) {
	f := newFixtures()
	for _, proto := range families {
		dev, emu := f.devs[proto], f.emus[proto]
		a := f.mux.adapters[proto]
		frame := emu.Frame()

		ghost := *dev
		ghost.Model = "no-such-model"
		if _, err := a.Decode(&ghost, frame, 0); err == nil || errors.Is(err, ErrWrongProtocol) {
			t.Errorf("%s: unknown model: %v", proto, err)
		}
		if _, err := a.EncodeCommand(&ghost, registry.Command{Cap: writable[proto]}); err == nil {
			t.Errorf("%s: command to unknown model accepted", proto)
		}

		alien := *dev
		alien.Protocol = "dnp3"
		if _, err := a.Decode(&alien, frame, 0); !errors.Is(err, ErrWrongProtocol) {
			t.Errorf("%s: wrong protocol decode: %v", proto, err)
		}
		if _, err := a.EncodeCommand(&alien, registry.Command{Cap: writable[proto]}); !errors.Is(err, ErrWrongProtocol) {
			t.Errorf("%s: wrong protocol command: %v", proto, err)
		}

		for _, cap := range []string{readOnly[proto], "no-such-cap"} {
			if _, err := a.EncodeCommand(dev, registry.Command{Cap: cap, Value: 1}); !errors.Is(err, ErrUnknownCapability) {
				t.Errorf("%s: command to %q: %v", proto, cap, err)
			}
		}

		// A write frame for the sensor, built by a twin whose map marks
		// it writable: the device itself must refuse it.
		if err := emu.Apply(twinWrite(t, proto, sensorID[proto])); err == nil || errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: device accepted a write to its read-only point: %v", proto, err)
		}
		// The same for a wire id the device does not have.
		if err := emu.Apply(twinWrite(t, proto, foreignID[proto])); err == nil || errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: device accepted a write to a foreign id: %v", proto, err)
		}

		// A model that knows only the actuator sees the sensor's
		// readings as foreign and skips them.
		emu.SetState(writable[proto], 3)
		obs, err := narrowAdapter(proto).Decode(dev, emu.Frame(), time.Second)
		if err != nil || len(obs) != 1 || obs[0].Cap != writable[proto] || obs[0].Value != 3 || obs[0].At != time.Second {
			t.Errorf("%s: foreign id not skipped: %+v, %v", proto, obs, err)
		}

		raw, err := a.EncodeCommand(dev, registry.Command{Cap: writable[proto], Value: 12.5})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if err := emu.Apply(raw); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if got, ok := emu.State(writable[proto]); !ok || got != 12.5 {
			t.Errorf("%s: state %v after command 12.5", proto, got)
		}
	}
}

// twinWrite encodes a write to wire id through a one-point map that
// allows it.
func twinWrite(t *testing.T, proto string, id uint16) []byte {
	t.Helper()
	var a Adapter
	switch proto {
	case ProtocolModbus:
		m := NewModbusAdapter()
		m.RegisterModel("twin", ModbusMap{"x": {Register: id, Scale: 1, Writable: true}})
		a = m
	case ProtocolBLEGatt:
		m := NewGattAdapter()
		m.RegisterModel("twin", GattMap{"x": {UUID: id, Writable: true}})
		a = m
	case ProtocolVendorTLV:
		m := NewVendorTLVAdapter()
		m.RegisterModel("twin", VendorMap{"x": {Tag: byte(id), Writable: true}})
		a = m
	}
	raw, err := a.EncodeCommand(&registry.Device{ID: "twin", Model: "twin", Protocol: proto}, registry.Command{Cap: "x", Value: 1})
	if err != nil {
		t.Fatalf("%s: twin: %v", proto, err)
	}
	return raw
}

// narrowAdapter maps only the fixture's actuator, under the fixture's
// model name.
func narrowAdapter(proto string) Adapter {
	switch proto {
	case ProtocolModbus:
		a := NewModbusAdapter()
		a.RegisterModel("plc-7", ModbusMap{"setpoint": {Register: 101, Scale: 100, Unit: "C", Writable: true}})
		return a
	case ProtocolBLEGatt:
		a := NewGattAdapter()
		a.RegisterModel("tag-3", GattMap{"led": {UUID: 0xFF01, Writable: true}})
		return a
	}
	a := NewVendorTLVAdapter()
	a.RegisterModel("fm-9", VendorMap{"valve": {Tag: 'V', Unit: "%", Writable: true}})
	return a
}

// FuzzAdapterDecode feeds arbitrary bytes to every family's two parsers:
// the adapter's Decode and the emulated device's Apply. Neither may
// panic; a refusal of the bytes wraps ErrBadFrame; and what one side
// accepts, the other side's encoder reproduces as a frame that is
// accepted again.
func FuzzAdapterDecode(f *testing.F) {
	fx := newFixtures()
	for i, proto := range families {
		emu := fx.emus[proto]
		emu.SetState(readOnly[proto], 21.5)
		emu.SetState(writable[proto], 40)
		f.Add(uint8(i), emu.Frame())
		raw, err := fx.mux.EncodeCommand(fx.devs[proto], registry.Command{Cap: writable[proto], Value: 42.5})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), raw)
		f.Add(uint8(i), []byte{})
	}
	f.Add(uint8(2), []byte("F\x051e300")) // 304 characters at two decimals
	f.Fuzz(func(t *testing.T, fam uint8, raw []byte) {
		fx := newFixtures()
		proto := families[int(fam)%len(families)]
		dev, emu := fx.devs[proto], fx.emus[proto]

		obs, err := fx.mux.Decode(dev, raw, time.Second)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: Decode(%x): %v does not wrap ErrBadFrame", proto, raw, err)
			}
		} else {
			for _, o := range obs {
				emu.SetState(o.Cap, o.Value)
			}
			if _, err := fx.mux.Decode(dev, emu.Frame(), time.Second); err != nil {
				t.Fatalf("%s: Decode(%x) accepted, but the device's own rendering of %+v is not: %v", proto, raw, obs, err)
			}
		}

		cap := writable[proto]
		if err := emu.Apply(raw); err != nil {
			return // malformed, or well-formed and refused (read-only, unknown id)
		}
		v, ok := emu.State(cap)
		if !ok {
			t.Fatalf("%s: Apply(%x) accepted without writing %s", proto, raw, cap)
		}
		again, err := fx.mux.EncodeCommand(dev, registry.Command{Cap: cap, Value: v})
		if errors.Is(err, ErrBadValue) && (math.IsNaN(v) || math.IsInf(v, 0)) {
			return // the wire can say NaN/Inf to a device; the adapter never will
		}
		if err != nil {
			t.Fatalf("%s: Apply(%x) wrote %v, which EncodeCommand refuses: %v", proto, raw, v, err)
		}
		if err := emu.Apply(again); err != nil {
			t.Fatalf("%s: re-encoded write %x refused: %v", proto, again, err)
		}
		// Modbus truncates to a register step (0.01 at the fixture's
		// scale); the other two encodings are exact.
		if got, _ := emu.State(cap); math.Abs(got-v) > 0.0100001 {
			t.Fatalf("%s: re-encoded write of %v reads back %v", proto, v, got)
		}
	})
}
