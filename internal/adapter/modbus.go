package adapter

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ProtocolModbus names the Modbus-like register protocol.
const ProtocolModbus = "modbus"

// Modbus-like function codes.
const (
	fnReadHoldingResp = 0x03
	fnWriteSingle     = 0x06
)

// ModbusMap describes how a model's holding registers map to canonical
// capabilities: register address, scale (value = raw/scale), and unit.
type ModbusMap map[string]ModbusPoint

// ModbusPoint is one register mapping.
type ModbusPoint struct {
	Register uint16
	Scale    float64 // raw = value * Scale
	Unit     string
	Writable bool
}

// A register is a signed 16-bit word, so a command must scale into one.
func (p ModbusPoint) info() pointInfo {
	lo, hi := math.MinInt16/p.Scale, math.MaxInt16/p.Scale
	return pointInfo{p.Register, p.Unit, p.Writable, math.Min(lo, hi), math.Max(lo, hi)}
}

func (p ModbusPoint) toWire(v float64) uint16   { return uint16(int16(v * p.Scale)) }
func (p ModbusPoint) fromWire(w uint16) float64 { return float64(int16(w)) / p.Scale }

var modbusCodec = &codec[ModbusPoint]{
	protocol: ProtocolModbus,
	mapNoun:  "modbus",
	idFmt:    "register %d",

	// A read-holding-registers response:
	// [unit][0x03][byteCount][startRegHi][startRegLo][data...].
	decode: func(raw []byte, lookup func(uint16) (ModbusPoint, bool)) ([]reading, error) {
		if len(raw) < 5 || raw[1] != fnReadHoldingResp {
			return nil, fmt.Errorf("%w: modbus header", ErrBadFrame)
		}
		start, data := int(binary.BigEndian.Uint16(raw[3:5])), raw[5:]
		if len(data) != int(raw[2]) || len(data)%2 != 0 {
			return nil, fmt.Errorf("%w: modbus byte count", ErrBadFrame)
		}
		var rs []reading
		for i := 0; i < len(data)/2 && start+i <= math.MaxUint16; i++ {
			if pt, ok := lookup(uint16(start + i)); ok {
				rs = append(rs, reading{uint16(start + i), pt.fromWire(binary.BigEndian.Uint16(data[2*i:]))})
			}
		}
		return rs, nil
	},

	// A write-single-register frame: [unit][0x06][regHi][regLo][valHi][valLo].
	encode: func(pt ModbusPoint, v float64) []byte {
		out := []byte{1, fnWriteSingle, 0, 0, 0, 0}
		binary.BigEndian.PutUint16(out[2:4], pt.Register)
		binary.BigEndian.PutUint16(out[4:6], pt.toWire(v))
		return out
	},

	// All registers from the lowest to the highest mapped address.
	render: func(state []slot[ModbusPoint]) []byte {
		lo, hi := uint16(0xFFFF), uint16(0)
		for _, s := range state {
			lo, hi = min(lo, s.pt.Register), max(hi, s.pt.Register)
		}
		n := int(hi-lo) + 1
		out := make([]byte, 5+2*n)
		out[0], out[1], out[2] = 1, fnReadHoldingResp, byte(2*n)
		binary.BigEndian.PutUint16(out[3:5], lo)
		for _, s := range state {
			binary.BigEndian.PutUint16(out[5+2*int(s.pt.Register-lo):], s.pt.toWire(s.v))
		}
		return out
	},

	parseWrite: func(raw []byte, lookup func(uint16) (ModbusPoint, bool)) (reading, error) {
		if len(raw) != 6 || raw[1] != fnWriteSingle {
			return reading{}, fmt.Errorf("%w: modbus write frame", ErrBadFrame)
		}
		r := reading{id: binary.BigEndian.Uint16(raw[2:4])}
		if pt, ok := lookup(r.id); ok {
			r.v = pt.fromWire(binary.BigEndian.Uint16(raw[4:6]))
		}
		return r, nil
	},
}

// ModbusAdapter translates Modbus-like frames.
type ModbusAdapter = family[ModbusPoint]

// NewModbusAdapter returns an adapter with no models registered.
func NewModbusAdapter() *ModbusAdapter { return newFamily(modbusCodec) }

// ModbusEmulator is a synthetic Modbus-like device.
type ModbusEmulator = emulator[ModbusPoint]

// NewModbusEmulator creates an emulator with register map m.
func NewModbusEmulator(m ModbusMap) *ModbusEmulator {
	return newEmulator(modbusCodec, m)
}

var (
	_ Adapter  = (*ModbusAdapter)(nil)
	_ Emulator = (*ModbusEmulator)(nil)
)
