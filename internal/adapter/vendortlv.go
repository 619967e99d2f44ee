package adapter

import (
	"fmt"
	"math"
	"strconv"
)

// ProtocolVendorTLV names the proprietary ASCII-TLV protocol: the kind of
// undocumented vendor format industrial integrations routinely confront.
// Frames are repeated records of [tag:1][len:1][ascii decimal value].
const ProtocolVendorTLV = "vendortlv"

// VendorMap maps capability names to TLV tags.
type VendorMap map[string]VendorPoint

// VendorPoint is one tag mapping.
type VendorPoint struct {
	Tag      byte
	Unit     string
	Writable bool
}

// Decimal text carries any finite float64.
func (p VendorPoint) info() pointInfo {
	return pointInfo{uint16(p.Tag), p.Unit, p.Writable, -math.MaxFloat64, math.MaxFloat64}
}

// vendorTLV appends one [tag][len][text] record. Text too long for the
// one-byte length falls back to the compact 'g' form, which always fits.
func vendorTLV(dst []byte, tag byte, v float64, format byte, prec int) []byte {
	text := strconv.AppendFloat(nil, v, format, prec, 64)
	if len(text) > math.MaxUint8 {
		text = strconv.AppendFloat(text[:0], v, 'g', -1, 64)
	}
	return append(append(dst, tag, byte(len(text))), text...)
}

var vendorCodec = &codec[VendorPoint]{
	protocol: ProtocolVendorTLV,
	mapNoun:  "vendor",
	idFmt:    "tag %d",

	decode: func(raw []byte, lookup func(uint16) (VendorPoint, bool)) ([]reading, error) {
		var rs []reading
		for p := 0; p < len(raw); {
			if p+2 > len(raw) {
				return nil, fmt.Errorf("%w: vendor TLV header", ErrBadFrame)
			}
			tag, l := raw[p], int(raw[p+1])
			p += 2
			if p+l > len(raw) {
				return nil, fmt.Errorf("%w: vendor TLV value", ErrBadFrame)
			}
			text := string(raw[p : p+l])
			p += l
			if _, known := lookup(uint16(tag)); !known {
				continue
			}
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: vendor value %q", ErrBadFrame, text)
			}
			rs = append(rs, reading{uint16(tag), v})
		}
		return rs, nil
	},

	// -1 precision round-trips exactly.
	encode: func(pt VendorPoint, v float64) []byte { return vendorTLV(nil, pt.Tag, v, 'g', -1) },

	// Devices of this family report two decimals.
	render: func(state []slot[VendorPoint]) []byte {
		var out []byte
		for _, s := range state {
			out = vendorTLV(out, s.pt.Tag, s.v, 'f', 2)
		}
		return out
	},

	parseWrite: func(raw []byte, _ func(uint16) (VendorPoint, bool)) (reading, error) {
		if len(raw) < 2 || int(raw[1])+2 != len(raw) {
			return reading{}, fmt.Errorf("%w: vendor write frame", ErrBadFrame)
		}
		v, err := strconv.ParseFloat(string(raw[2:]), 64)
		if err != nil {
			return reading{}, fmt.Errorf("%w: vendor write value", ErrBadFrame)
		}
		return reading{uint16(raw[0]), v}, nil
	},
}

// VendorTLVAdapter translates the vendor TLV protocol.
type VendorTLVAdapter = family[VendorPoint]

// NewVendorTLVAdapter returns an adapter with no models registered.
func NewVendorTLVAdapter() *VendorTLVAdapter { return newFamily(vendorCodec) }

// VendorTLVEmulator is a synthetic vendor-protocol device.
type VendorTLVEmulator = emulator[VendorPoint]

// NewVendorTLVEmulator creates an emulator with tag map m.
func NewVendorTLVEmulator(m VendorMap) *VendorTLVEmulator {
	return newEmulator(vendorCodec, m)
}

var (
	_ Adapter  = (*VendorTLVAdapter)(nil)
	_ Emulator = (*VendorTLVEmulator)(nil)
)
