package adapter

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"iiotds/internal/registry"
)

// ProtocolBLEGatt names the BLE-GATT-like TLV protocol: characteristics
// identified by 16-bit UUIDs carrying little-endian IEEE-754 floats.
const ProtocolBLEGatt = "blegatt"

// GattMap maps capability names to characteristic UUIDs.
type GattMap map[string]GattChar

// GattChar is one characteristic mapping.
type GattChar struct {
	UUID     uint16
	Unit     string
	Writable bool
}

// A characteristic value is a float32: wider magnitudes would arrive as ±Inf.
func (c GattChar) info() pointInfo {
	return pointInfo{c.UUID, c.Unit, c.Writable, -math.MaxFloat32, math.MaxFloat32}
}

// gattTLV appends one [uuidLE:2][4][float32LE] record.
func gattTLV(dst []byte, uuid uint16, v float64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uuid)
	dst = append(dst, 4)
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
}

func gattValue(b []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
}

var gattCodec = &codec[GattChar]{
	protocol: ProtocolBLEGatt,
	mapNoun:  "gatt",
	idFmt:    "characteristic %#x",

	// A notification frame: repeated [uuidLE:2][len:1][value].
	decode: func(raw []byte, lookup func(uint16) (GattChar, bool)) ([]reading, error) {
		var rs []reading
		for p := 0; p < len(raw); {
			if p+3 > len(raw) {
				return nil, fmt.Errorf("%w: gatt TLV header", ErrBadFrame)
			}
			uuid, l := binary.LittleEndian.Uint16(raw[p:]), int(raw[p+2])
			p += 3
			if p+l > len(raw) {
				return nil, fmt.Errorf("%w: gatt TLV value", ErrBadFrame)
			}
			val := raw[p : p+l]
			p += l
			if _, known := lookup(uuid); !known {
				continue // foreign characteristic: skip, per BLE practice
			}
			if l != 4 {
				return nil, fmt.Errorf("%w: gatt float length %d", ErrBadFrame, l)
			}
			rs = append(rs, reading{uuid, gattValue(val)})
		}
		return rs, nil
	},

	// A write frame is one record.
	encode: func(ch GattChar, v float64) []byte { return gattTLV(nil, ch.UUID, v) },

	// Characteristics in UUID order.
	render: func(state []slot[GattChar]) []byte {
		sort.SliceStable(state, func(i, j int) bool { return state[i].pt.UUID < state[j].pt.UUID })
		var out []byte
		for _, s := range state {
			out = gattTLV(out, s.pt.UUID, s.v)
		}
		return out
	},

	parseWrite: func(raw []byte, _ func(uint16) (GattChar, bool)) (reading, error) {
		if len(raw) != 7 || raw[2] != 4 {
			return reading{}, fmt.Errorf("%w: gatt write frame", ErrBadFrame)
		}
		return reading{binary.LittleEndian.Uint16(raw), gattValue(raw[3:])}, nil
	},
}

// GattAdapter translates BLE-GATT-like frames.
type GattAdapter = family[GattChar]

// NewGattAdapter returns an adapter with no models registered.
func NewGattAdapter() *GattAdapter { return newFamily(gattCodec) }

// GattEmulator is a synthetic BLE-GATT-like peripheral.
type GattEmulator = emulator[GattChar]

// NewGattEmulator creates an emulator for dev with characteristic map m.
func NewGattEmulator(dev *registry.Device, m GattMap) *GattEmulator {
	return newEmulator(gattCodec, dev, m)
}

var (
	_ Adapter  = (*GattAdapter)(nil)
	_ Emulator = (*GattEmulator)(nil)
)
