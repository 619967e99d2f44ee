// Package coap implements the Constrained Application Protocol (RFC 7252,
// paper ref [15]) — the middleware protocol §III-B presents as the
// textbook answer to sensing-layer interoperability — plus the Observe
// extension (RFC 7641) and a simplified block-wise transfer (RFC 7959).
//
// The implementation is transport-agnostic: the same message layer,
// client, and server run over real UDP sockets (cmd/iiotgw) and over the
// emulated RPL mesh (internal/core), which is exactly the property that
// makes CoAP useful as integration middleware.
package coap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Type is the CoAP message type.
type Type uint8

// Message types (RFC 7252 §3).
const (
	Confirmable     Type = 0
	NonConfirmable  Type = 1
	Acknowledgement Type = 2
	Reset           Type = 3
)

// String returns the RFC's abbreviation.
func (t Type) String() string {
	switch t {
	case Confirmable:
		return "CON"
	case NonConfirmable:
		return "NON"
	case Acknowledgement:
		return "ACK"
	case Reset:
		return "RST"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Code is a CoAP method or response code, encoded as c.dd.
type Code uint8

// MakeCode builds a Code from its class and detail.
func MakeCode(class, detail uint8) Code { return Code(class<<5 | detail&0x1F) }

// Class returns the code class (0 request, 2 success, 4 client error,
// 5 server error).
func (c Code) Class() uint8 { return uint8(c) >> 5 }

// Detail returns the dd part of c.dd.
func (c Code) Detail() uint8 { return uint8(c) & 0x1F }

// String renders c.dd form.
func (c Code) String() string { return fmt.Sprintf("%d.%02d", c.Class(), c.Detail()) }

// Method and response codes (RFC 7252 §12.1).
const (
	CodeEmpty  Code = 0
	CodeGET    Code = Code(1)
	CodePOST   Code = Code(2)
	CodePUT    Code = Code(3)
	CodeDELETE Code = Code(4)
)

// Response codes.
var (
	CodeCreated              = MakeCode(2, 1)
	CodeDeleted              = MakeCode(2, 2)
	CodeValid                = MakeCode(2, 3)
	CodeChanged              = MakeCode(2, 4)
	CodeContent              = MakeCode(2, 5)
	CodeBadRequest           = MakeCode(4, 0)
	CodeUnauthorized         = MakeCode(4, 1)
	CodeForbidden            = MakeCode(4, 3)
	CodeNotFound             = MakeCode(4, 4)
	CodeMethodNotAllowed     = MakeCode(4, 5)
	CodeRequestTooLarge      = MakeCode(4, 13)
	CodeInternalServerError  = MakeCode(5, 0)
	CodeNotImplemented       = MakeCode(5, 1)
	CodeServiceUnavailable   = MakeCode(5, 3)
	CodeGatewayTimeout       = MakeCode(5, 4)
	CodeProxyingNotSupported = MakeCode(5, 5)
)

// IsRequest reports whether the code is a request method.
func (c Code) IsRequest() bool { return c.Class() == 0 && c != CodeEmpty }

// IsResponse reports whether the code is a response.
func (c Code) IsResponse() bool { return c.Class() >= 2 }

// IsSuccess reports whether the code is a 2.xx response.
func (c Code) IsSuccess() bool { return c.Class() == 2 }

// OptionID identifies a CoAP option (RFC 7252 §12.2).
type OptionID uint16

// Option numbers used by this implementation.
const (
	OptIfMatch       OptionID = 1
	OptObserve       OptionID = 6
	OptURIPath       OptionID = 11
	OptContentFormat OptionID = 12
	OptMaxAge        OptionID = 14
	OptURIQuery      OptionID = 15
	OptAccept        OptionID = 17
	OptBlock2        OptionID = 23
	OptBlock1        OptionID = 27
)

// Content formats (RFC 7252 §12.3).
const (
	FormatText       uint32 = 0
	FormatLinkFormat uint32 = 40
	FormatOctets     uint32 = 42
	FormatJSON       uint32 = 50
	FormatCBOR       uint32 = 60
)

// Option is one CoAP option instance.
type Option struct {
	ID    OptionID
	Value []byte
}

// Uint decodes the option value as a uint (RFC 7252 §3.2 uint format).
func (o Option) Uint() uint32 {
	var v uint32
	for _, b := range o.Value {
		v = v<<8 | uint32(b)
	}
	return v
}

// uintBytes encodes v in the minimal big-endian form (empty for zero).
func uintBytes(v uint32) []byte {
	switch {
	case v == 0:
		return nil
	case v < 1<<8:
		return []byte{byte(v)}
	case v < 1<<16:
		return []byte{byte(v >> 8), byte(v)}
	case v < 1<<24:
		return []byte{byte(v >> 16), byte(v >> 8), byte(v)}
	default:
		return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
}

// Message is one CoAP message.
type Message struct {
	Type      Type
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option
	Payload   []byte
}

// AddOption appends an option.
func (m *Message) AddOption(id OptionID, value []byte) {
	m.Options = append(m.Options, Option{ID: id, Value: value})
}

// AddUintOption appends an option with a uint value.
func (m *Message) AddUintOption(id OptionID, v uint32) {
	m.AddOption(id, uintBytes(v))
}

// Option returns the first option with the given ID.
func (m *Message) Option(id OptionID) (Option, bool) {
	for _, o := range m.Options {
		if o.ID == id {
			return o, true
		}
	}
	return Option{}, false
}

// RemoveOption deletes every instance of the option.
func (m *Message) RemoveOption(id OptionID) {
	out := m.Options[:0]
	for _, o := range m.Options {
		if o.ID != id {
			out = append(out, o)
		}
	}
	m.Options = out
}

// SetPath sets the Uri-Path options from a "/"-separated path.
func (m *Message) SetPath(path string) {
	m.RemoveOption(OptURIPath)
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if i > start {
				m.AddOption(OptURIPath, []byte(path[start:i]))
			}
			start = i + 1
		}
	}
}

// Path reassembles the Uri-Path options into a "/"-separated path.
func (m *Message) Path() string { return string(m.appendPath(nil)) }

// appendPath appends the "/"-separated path to b, which must be empty;
// the server resolves a request into a stack buffer this way.
func (m *Message) appendPath(b []byte) []byte {
	for _, o := range m.Options {
		if o.ID == OptURIPath {
			if len(b) > 0 {
				b = append(b, '/')
			}
			b = append(b, o.Value...)
		}
	}
	return b
}

// Queries returns all Uri-Query option values.
func (m *Message) Queries() []string {
	var out []string
	for _, o := range m.Options {
		if o.ID == OptURIQuery {
			out = append(out, string(o.Value))
		}
	}
	return out
}

// Marshaling errors.
var (
	ErrTruncated  = errors.New("coap: truncated message")
	ErrBadVersion = errors.New("coap: unsupported version")
	ErrBadToken   = errors.New("coap: token longer than 8 bytes")
	ErrBadOption  = errors.New("coap: malformed option")
	ErrFormat     = errors.New("coap: message format error")
)

const version = 1

// Marshal serializes the message per RFC 7252 §3.
func (m *Message) Marshal() ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	// Options go out in ascending ID order with delta encoding. Most
	// messages already hold them in order; otherwise a stable sort keeps
	// repeated options (Uri-Path segments) in place, on a stack copy when
	// there are at most eight.
	opts := m.Options
	var stack [8]Option
	if !slices.IsSortedFunc(opts, cmpOptionID) {
		opts = append(stack[:0], opts...)
		slices.SortStableFunc(opts, cmpOptionID)
	}
	size := 4 + len(m.Token) + 1 + len(m.Payload)
	for _, o := range opts {
		size += 5 + len(o.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, version<<6|uint8(m.Type)<<4|uint8(len(m.Token)))
	buf = append(buf, uint8(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)
	prev := OptionID(0)
	for _, o := range opts {
		delta := int(o.ID - prev)
		prev = o.ID
		buf = append(buf, optNibble(delta)<<4|optNibble(len(o.Value)))
		buf = appendOptExt(buf, delta)
		buf = appendOptExt(buf, len(o.Value))
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, 0xFF)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

func cmpOptionID(a, b Option) int { return int(a.ID) - int(b.ID) }

// optNibble is the 4-bit form of an option delta or length.
func optNibble(v int) uint8 {
	switch {
	case v < 13:
		return uint8(v)
	case v < 269:
		return 13
	default:
		return 14
	}
}

// appendOptExt appends the extension bytes optNibble's form implies.
func appendOptExt(b []byte, v int) []byte {
	switch {
	case v < 13:
		return b
	case v < 269:
		return append(b, uint8(v-13))
	default:
		return binary.BigEndian.AppendUint16(b, uint16(v-269))
	}
}

// Unmarshal parses a CoAP message. The message owns one copy of data:
// Token, option values and Payload are sub-slices of it, each capped at
// its own length so an append to one never writes into another. data is
// never aliased — transports reuse their inbound buffers.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < 4 {
		return nil, ErrTruncated
	}
	if data[0]>>6 != version {
		return nil, ErrBadVersion
	}
	tkl := int(data[0] & 0x0F)
	if tkl > 8 {
		return nil, ErrBadToken
	}
	p := 4
	if len(data) < p+tkl {
		return nil, ErrTruncated
	}
	data = append(make([]byte, 0, len(data)), data...)
	m := &Message{
		Type:      Type(data[0] >> 4 & 0x3),
		Code:      Code(data[1]),
		MessageID: binary.BigEndian.Uint16(data[2:4]),
	}
	if tkl > 0 {
		m.Token = data[p : p+tkl : p+tkl]
	}
	p += tkl

	var stack [16]Option
	opts := stack[:0]
	prev := OptionID(0)
	for p < len(data) {
		if data[p] == 0xFF {
			p++
			if p >= len(data) {
				return nil, ErrFormat // payload marker with empty payload
			}
			m.Payload = data[p:]
			break
		}
		db := int(data[p] >> 4)
		lb := int(data[p] & 0x0F)
		p++
		delta, n, err := optExt(data, p, db)
		if err != nil {
			return nil, err
		}
		p = n
		length, n, err := optExt(data, p, lb)
		if err != nil {
			return nil, err
		}
		p = n
		if len(data) < p+length {
			return nil, ErrTruncated
		}
		// Option numbers are 16-bit; a cumulative delta past 65535 would
		// silently wrap OptionID to a smaller number, breaking the
		// ascending-order invariant Marshal relies on.
		if int(prev)+delta > 0xFFFF {
			return nil, ErrBadOption
		}
		prev += OptionID(delta)
		o := Option{ID: prev}
		if length > 0 {
			o.Value = data[p : p+length : p+length]
		}
		opts = append(opts, o)
		p += length
	}
	if len(opts) > 0 {
		m.Options = append(make([]Option, 0, len(opts)), opts...)
	}
	return m, nil
}

func optExt(data []byte, p, nibble int) (value, next int, err error) {
	switch nibble {
	case 13:
		if p >= len(data) {
			return 0, 0, ErrTruncated
		}
		return int(data[p]) + 13, p + 1, nil
	case 14:
		if p+1 >= len(data) {
			return 0, 0, ErrTruncated
		}
		return int(binary.BigEndian.Uint16(data[p:p+2])) + 269, p + 2, nil
	case 15:
		return 0, 0, ErrBadOption
	default:
		return nibble, p, nil
	}
}
