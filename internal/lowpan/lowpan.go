// Package lowpan is the adaptation layer between network-layer datagrams
// and small link frames, modeled on 6LoWPAN (RFC 4944, paper ref [12]):
// it carries the network header in one compressed 9-byte form and
// fragments datagrams that exceed the link MTU, with fragment offsets in
// 8-byte units and lazy reassembly expiry.
//
// Without this layer the stack could not carry CoAP messages (up to ~1 KB
// with block transfers) over 802.15.4-class frames (~100 B of payload),
// which is precisely the interoperability glue §III discusses.
package lowpan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
)

// Proto identifies the upper-layer protocol inside a datagram.
type Proto byte

// Well-known datagram protocols.
const (
	// ProtoCoAP carries CoAP messages.
	ProtoCoAP Proto = 1
	// ProtoGossip carries anti-entropy synchronization.
	ProtoGossip Proto = 2
	// ProtoRaw carries application-defined bytes.
	ProtoRaw Proto = 3
	// ProtoScenario carries the scenario engine's AEAD-sealed heartbeats
	// (internal/scenario), kept on their own protocol number so scenario
	// instrumentation never collides with application traffic. Proto 4 is
	// taken by agg.ProtoAgg (declared in internal/agg).
	ProtoScenario Proto = 5
	// ProtoIngest carries telemetry readings bound for the storage tier:
	// nodes push up the DODAG, the border router batches into the
	// sharded time-series store (internal/store).
	ProtoIngest Proto = 6
)

// Datagram is the network-layer unit routed end-to-end across the mesh.
type Datagram struct {
	Src      radio.NodeID
	Dst      radio.NodeID
	Proto    Proto
	HopLimit uint8
	Seq      uint16
	Payload  []byte
	// Journey is the flight-recorder journey ID of the logical packet
	// (0 = none). It is in-memory metadata only: Encode stamps it onto
	// the emitted frame buffers (netbuf.Buffer.SetJourney) but it never
	// appears in the wire header, so tracing does not change airtime.
	// On receive it is restored by the router from the MAC's journey
	// context, not decoded from bytes.
	Journey uint64
}

// The datagram header is IPHC-like and 9 bytes long, where a full IPv6
// header takes 40: a version byte, then source, destination, protocol,
// hop limit and sequence number. The version byte is 0x81 (version 1,
// compressed); a header that starts with any other byte is refused.
const (
	headerLen     = 9
	headerVersion = 0x81
)

// dispatch bytes for link frames.
const (
	dispUnfrag byte = 0x41
	dispFrag1  byte = 0xC0
	dispFragN  byte = 0xE0
)

// Frag header layout after the dispatch byte:
//
//	FRAG1: size uint16, tag uint16
//	FRAGN: size uint16, tag uint16, offset byte (8-byte units)
const (
	frag1HeaderLen = 1 + 2 + 2
	fragNHeaderLen = 1 + 2 + 2 + 1
)

// MaxDatagramSize bounds reassembly buffers (mirrors the IPv6 minimum
// MTU that 6LoWPAN must support).
const MaxDatagramSize = 1280

// ErrTooLarge is returned when a datagram exceeds MaxDatagramSize.
var ErrTooLarge = errors.New("lowpan: datagram exceeds maximum size")

// encodeHeaderInto serializes the datagram header into buf, which must be
// headerLen bytes.
func encodeHeaderInto(buf []byte, d *Datagram) {
	buf[0] = headerVersion
	binary.BigEndian.PutUint16(buf[1:3], uint16(d.Src))
	binary.BigEndian.PutUint16(buf[3:5], uint16(d.Dst))
	buf[5] = byte(d.Proto)
	buf[6] = d.HopLimit
	binary.BigEndian.PutUint16(buf[7:9], d.Seq)
}

// decodeHeader parses a datagram header; the payload follows it.
func decodeHeader(raw []byte) (d Datagram, err error) {
	if len(raw) < headerLen {
		return d, fmt.Errorf("lowpan: header too short (%d bytes)", len(raw))
	}
	if raw[0] != headerVersion {
		return d, fmt.Errorf("lowpan: unknown header version %#x", raw[0])
	}
	d.Src = radio.NodeID(binary.BigEndian.Uint16(raw[1:3]))
	d.Dst = radio.NodeID(binary.BigEndian.Uint16(raw[3:5]))
	d.Proto = Proto(raw[5])
	d.HopLimit = raw[6]
	d.Seq = binary.BigEndian.Uint16(raw[7:9])
	return d, nil
}

// Config configures an Adaptation.
type Config struct {
	// MTU is the maximum link-frame payload (default 100 bytes,
	// 802.15.4-class after MAC overhead).
	MTU int
	// ReassemblyTimeout is how long partial datagrams are kept
	// (default 5 s).
	ReassemblyTimeout time.Duration
}

// Adaptation fragments outgoing datagrams and reassembles incoming ones.
// It is not safe for concurrent use.
type Adaptation struct {
	cfg     Config
	pool    *netbuf.Pool
	nextTag uint16
	reasm   map[reasmKey]*reasmBuf
}

type reasmKey struct {
	from radio.NodeID
	tag  uint16
}

// fragBitmap records which fragment offsets of one datagram have been
// seen. Offsets are in 8-byte units, so a MaxDatagramSize datagram has
// at most MaxDatagramSize/8 slots; three words cover them inline in the
// buffer instead of a per-reassembly map allocation.
type fragBitmap [(MaxDatagramSize/8 + 63) / 64]uint64

func (b *fragBitmap) test(slot int) bool { return b[slot/64]&(1<<(slot%64)) != 0 }
func (b *fragBitmap) set(slot int)       { b[slot/64] |= 1 << (slot % 64) }

type reasmBuf struct {
	created  time.Duration
	size     int
	received int
	data     []byte
	have     fragBitmap // fragment offsets seen, in 8-byte slots
}

// NewAdaptation returns an adaptation layer; zero fields of cfg take
// their defaults.
func NewAdaptation(cfg Config) *Adaptation {
	if cfg.MTU == 0 {
		cfg.MTU = 100
	}
	if cfg.MTU < 16 {
		panic(fmt.Sprintf("lowpan: MTU %d too small", cfg.MTU))
	}
	if cfg.ReassemblyTimeout == 0 {
		cfg.ReassemblyTimeout = 5 * time.Second
	}
	return &Adaptation{cfg: cfg, reasm: make(map[reasmKey]*reasmBuf)}
}

// UsePool makes Encode draw frame buffers from p (typically the stack's
// pool via link.Buffers()) instead of allocating fresh ones.
func (a *Adaptation) UsePool(p *netbuf.Pool) { a.pool = p }

func (a *Adaptation) get() *netbuf.Buffer {
	if a.pool != nil {
		return a.pool.Get()
	}
	return netbuf.New()
}

// Encode serializes d into one or more link-frame payloads, appending
// them to frames (pass frames[:0] of a scratch slice to amortize).
// Ownership of the returned buffers transfers to the caller, which must
// Release each one (handing them to link.SendBuf counts).
//
// The unfragmented case is zero-copy: the datagram is built once in a
// pooled buffer and the dispatch byte goes into its headroom. Fragments
// are per-fragment pooled copies of chunks of that buffer — true views
// are impossible because each fragment's header would overwrite the
// neighboring chunk's trailing bytes.
func (a *Adaptation) Encode(d *Datagram, frames []*netbuf.Buffer) ([]*netbuf.Buffer, error) {
	if headerLen+len(d.Payload) > MaxDatagramSize {
		return frames, ErrTooLarge
	}
	whole := a.get()
	whole.SetJourney(d.Journey)
	encodeHeaderInto(whole.Extend(headerLen), d)
	whole.Append(d.Payload)
	size := whole.Len()
	if 1+size <= a.cfg.MTU {
		whole.Prepend(1)[0] = dispUnfrag
		return append(frames, whole), nil
	}
	// Fragmentation. Non-final fragments carry chunks that are multiples
	// of 8 bytes so offsets fit in a byte in 8-byte units.
	defer whole.Release()
	a.nextTag++
	tag := a.nextTag
	raw := whole.Bytes()

	first := (a.cfg.MTU - frag1HeaderLen) &^ 7
	f := a.get()
	f.SetJourney(d.Journey)
	h := f.Extend(frag1HeaderLen)
	h[0] = dispFrag1
	binary.BigEndian.PutUint16(h[1:3], uint16(size))
	binary.BigEndian.PutUint16(h[3:5], tag)
	f.Append(raw[:first])
	frames = append(frames, f)

	offset := first
	per := (a.cfg.MTU - fragNHeaderLen) &^ 7
	for offset < size {
		end := offset + per
		if end > size {
			end = size
		}
		f := a.get()
		f.SetJourney(d.Journey)
		h := f.Extend(fragNHeaderLen)
		h[0] = dispFragN
		binary.BigEndian.PutUint16(h[1:3], uint16(size))
		binary.BigEndian.PutUint16(h[3:5], tag)
		h[5] = byte(offset / 8)
		f.Append(raw[offset:end])
		frames = append(frames, f)
		offset = end
	}
	return frames, nil
}

// Feed processes one received link-frame payload from a neighbor. now is
// the current (virtual) time, used for reassembly expiry. It returns the
// completed datagram, or nil if more fragments are needed.
func (a *Adaptation) Feed(now time.Duration, from radio.NodeID, frame []byte) (*Datagram, error) {
	a.expire(now)
	if len(frame) < 1 {
		return nil, errors.New("lowpan: empty frame")
	}
	switch frame[0] {
	case dispUnfrag:
		return a.finish(frame[1:])
	case dispFrag1, dispFragN:
		return a.feedFragment(now, from, frame)
	default:
		return nil, fmt.Errorf("lowpan: unknown dispatch %#x", frame[0])
	}
}

func (a *Adaptation) feedFragment(now time.Duration, from radio.NodeID, frame []byte) (*Datagram, error) {
	hlen := frag1HeaderLen
	if frame[0] == dispFragN {
		hlen = fragNHeaderLen
	}
	if len(frame) < hlen {
		return nil, errors.New("lowpan: truncated fragment header")
	}
	size := int(binary.BigEndian.Uint16(frame[1:3]))
	tag := binary.BigEndian.Uint16(frame[3:5])
	if size > MaxDatagramSize {
		return nil, ErrTooLarge
	}
	offset := 0
	if frame[0] == dispFragN {
		offset = int(frame[5]) * 8
	}
	chunk := frame[hlen:]
	if offset+len(chunk) > size {
		return nil, fmt.Errorf("lowpan: fragment overruns datagram (%d+%d > %d)", offset, len(chunk), size)
	}

	key := reasmKey{from: from, tag: tag}
	buf, ok := a.reasm[key]
	if !ok || buf.size != size {
		// New datagram, or tag reuse with a different size: (re)start.
		buf = &reasmBuf{created: now, size: size, data: make([]byte, size)}
		a.reasm[key] = buf
	}
	// The overrun check above bounds offset ≤ size ≤ MaxDatagramSize, so
	// the slot always fits the bitmap.
	if slot := offset / 8; !buf.have.test(slot) {
		buf.have.set(slot)
		copy(buf.data[offset:], chunk)
		buf.received += len(chunk)
	}
	if buf.received < buf.size {
		return nil, nil
	}
	delete(a.reasm, key)
	return a.finish(buf.data)
}

func (a *Adaptation) finish(whole []byte) (*Datagram, error) {
	d, err := decodeHeader(whole)
	if err != nil {
		return nil, err
	}
	d.Payload = whole[headerLen:]
	return &d, nil
}

func (a *Adaptation) expire(now time.Duration) {
	for k, b := range a.reasm {
		if now-b.created > a.cfg.ReassemblyTimeout {
			delete(a.reasm, k)
		}
	}
}
