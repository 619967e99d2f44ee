// Package mac implements medium-access control disciplines for the
// sensing-and-actuation layer. Four MACs cover the design space the paper
// discusses in §IV-B:
//
//   - CSMA: an always-on carrier-sense MAC — the latency baseline with no
//     energy savings.
//   - LPL: low-power listening with sender strobing and early ACK
//     (X-MAC-style, paper refs [26,27]) — receivers wake briefly every
//     interval, so multi-hop latency is dominated by wake intervals.
//   - RIMAC: receiver-initiated rendezvous (paper ref [27]) — the same
//     duty cycle with short beacons on the air instead of strobe trains.
//   - TDMA: a synchronized transmission pipeline (Dozer/Koala-style,
//     paper refs [28-30]) — staggered slots let a packet traverse many
//     hops within one epoch, which is the paper's "highly synchronous
//     end-to-end communication" point.
//
// They are four disciplines over one chassis (chassis.go): the same tiny
// header (kind, sequence number), the same send queue, unicast ACKs
// matched by sequence number and neighbor, suppression of consecutive
// retransmissions, and delivery inside the packet's journey. A discipline
// file holds only what differs: timers, Start/Stop, the transmit state
// machine, and idle-listening energy accounting, so duty cycles are
// measurable.
package mac

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
)

// Kind discriminates MAC frame types.
type Kind byte

const (
	// KindData carries an upper-layer payload.
	KindData Kind = 1
	// KindAck acknowledges a unicast data frame.
	KindAck Kind = 2
	// KindBeacon announces a receiver wake-up (receiver-initiated MACs).
	KindBeacon Kind = 3
)

// headerLen is the MAC header size: kind (1) + seq (2).
const headerLen = 3

// Handler receives decoded upper-layer payloads. payload is a view into
// the delivered packet buffer, valid only for the duration of the call:
// a handler that retains it past return must copy (netbuf.CloneBytes).
type Handler func(from radio.NodeID, payload []byte)

// DoneFunc reports the outcome of a Send: delivered is true when the
// frame was acknowledged (unicast) or fully strobed (broadcast).
type DoneFunc func(delivered bool)

// MAC is the interface all disciplines implement. Send enqueues one
// payload; frames are transmitted in FIFO order, one at a time. done may
// be nil.
type MAC interface {
	Start()
	Stop()
	// Send copies payload into a pooled buffer at call time, so the
	// caller's slice (e.g. a just-received view being forwarded) is free
	// for reuse the moment Send returns.
	Send(to radio.NodeID, payload []byte, done DoneFunc)
	// SendBuf is the zero-copy variant: it takes ownership of b (the
	// caller must Retain first to keep using it). The MAC prepends its
	// header into b's headroom, holds the buffer across ARQ retries, and
	// releases it when done fires (or on Stop).
	SendBuf(to radio.NodeID, b *netbuf.Buffer, done DoneFunc)
	OnReceive(h Handler)
	Name() string
	// QueueLen returns the number of payloads waiting (including the
	// one in flight).
	QueueLen() int
	// Retune moves the node to another radio channel (spectrum
	// coordination, §IV-C).
	Retune(ch uint8)
	// Buffers returns the packet-buffer pool SendBuf buffers must come
	// from (the medium's pool).
	Buffers() *netbuf.Pool
	// Reboot models a device restart while the MAC is stopped: the
	// sequence counter and the per-neighbor dedup state are cleared, as
	// a real node's RAM would be. Without this a rebooted node resumes
	// its old sequence numbering and stale receive state.
	Reboot()
	// ForgetNeighbor drops all receive-side state held about a neighbor
	// (its dedup entry). Peers call this when they learn the neighbor
	// rebooted, so the neighbor's restarted sequence numbering cannot
	// collide with the last sequence seen before the crash — the
	// collision would silently drop the first post-reboot frame as an
	// ARQ duplicate.
	ForgetNeighbor(id radio.NodeID)
}

// frame prepends the MAC header into b's headroom. Called exactly once
// per queued item, when it reaches the head of the queue and its
// sequence number is assigned; retransmissions reuse the framed buffer.
func frame(b *netbuf.Buffer, kind Kind, seq uint16) {
	h := b.Prepend(headerLen)
	h[0] = byte(kind)
	binary.BigEndian.PutUint16(h[1:3], seq)
}

// control builds a header-only frame (ACK, beacon) from the pool. The
// caller releases it right after radio.Medium.Send, which holds its own
// reference for the flight.
func control(p *netbuf.Pool, kind Kind, seq uint16) *netbuf.Buffer {
	b := p.Get()
	frame(b, kind, seq)
	return b
}

// decode splits an on-air payload into its MAC header and upper payload.
func decode(raw []byte) (kind Kind, seq uint16, payload []byte, err error) {
	if len(raw) < headerLen {
		return 0, 0, nil, fmt.Errorf("mac: frame too short (%d bytes)", len(raw))
	}
	return Kind(raw[0]), binary.BigEndian.Uint16(raw[1:3]), raw[headerLen:], nil
}

// outItem is one queued send. buf is owned by the queue: exactly one
// Release when the item leaves (delivered, failed, or Stop).
type outItem struct {
	to   radio.NodeID
	buf  *netbuf.Buffer
	done DoneFunc
}

// sendq is a FIFO of outItems over a reusable backing array: pop
// advances a head index instead of re-slicing, so the steady-state
// send/complete cycle never reallocates (re-slicing with append used to
// allocate a fresh 1-element array per send).
type sendq struct {
	items []outItem
	head  int
}

func (q *sendq) push(it outItem) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, it)
}

// front returns the in-flight item. Only valid while len() > 0, and the
// pointer must not be held across a push (the array may move).
func (q *sendq) front() *outItem { return &q.items[q.head] }

func (q *sendq) pop() outItem {
	it := q.items[q.head]
	q.items[q.head] = outItem{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

func (q *sendq) len() int { return len(q.items) - q.head }

// drain empties the queue in FIFO order, releasing each item's buffer
// and failing its callback — the Stop path.
func (q *sendq) drain() {
	for q.len() > 0 {
		it := q.pop()
		it.buf.Release()
		if it.done != nil {
			it.done(false)
		}
	}
}

// copyIn moves payload into a pooled buffer — the Send convenience path.
func copyIn(p *netbuf.Pool, payload []byte) *netbuf.Buffer {
	b := p.Get()
	b.Append(payload)
	return b
}

// dedup suppresses consecutive duplicate data frames per neighbor, which
// ARQ retransmissions produce. It holds the last sequence number heard
// from each neighbor, sorted by ID; a neighbor is present once heard from.
// The zero dedup is empty.
type dedup struct {
	last []lastSeq
}

type lastSeq struct {
	id  int32
	seq uint16
}

func (d *dedup) find(from radio.NodeID) (int, bool) {
	l, key := d.last, int32(from)
	lo, hi := 0, len(l)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l[mid].id < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l) && l[lo].id == key
}

// fresh records (from, seq) and reports whether it was not a duplicate of
// the previous frame from that neighbor.
func (d *dedup) fresh(from radio.NodeID, seq uint16) bool {
	i, seen := d.find(from)
	switch {
	case !seen:
		d.last = slices.Insert(d.last, i, lastSeq{id: int32(from), seq: seq})
	case d.last[i].seq == seq:
		return false
	default:
		d.last[i].seq = seq
	}
	return true
}

// forget drops the entry for one neighbor (see MAC.ForgetNeighbor).
func (d *dedup) forget(from radio.NodeID) {
	if i, seen := d.find(from); seen {
		d.last = slices.Delete(d.last, i, i+1)
	}
}

// reset drops all entries (a device reboot).
func (d *dedup) reset() { d.last = nil }

// Config carries the knobs common to all MACs.
type Config struct {
	// Channel the node is tuned to.
	Channel uint8
	// Tenant is the administrative domain tag stamped on frames (§IV-C).
	Tenant string
	// MaxRetries bounds unicast retransmissions (default 3).
	MaxRetries int
	// AckTimeout is how long a sender waits for an ACK (default 5 ms;
	// TDMA ignores it and uses in-slot ACKs).
	AckTimeout time.Duration
}

func (c *Config) applyDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 5 * time.Millisecond
	}
}
