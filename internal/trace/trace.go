// Package trace is the emulation stack's flight recorder: a per-kernel,
// fixed-capacity ring of structured events that every protocol layer
// emits into. It exists to make a distributed deployment *observable*
// (the paper's §V-D maintainability argument): what the radio delivered,
// what the MAC retried, when RPL switched parents, how an RNFD suspicion
// became a verdict — each stamped with the virtual time and node that
// produced it.
//
// Design rules:
//
//   - Disabled is free. A nil *Recorder is the disabled recorder; Emit on
//     nil is a single branch and allocates nothing, so instrumentation
//     stays compiled into the hot paths permanently.
//   - Enabled is allocation-free too. Events are fixed-size scalar
//     records written into a preallocated ring; when the ring wraps, the
//     oldest events are dropped but per-type counts stay exact.
//   - Deterministic. The recorder is owned by a single simulation kernel
//     and written only from its event callbacks, in execution order.
//     Under the determinism regime (DESIGN.md §5) the recorded stream —
//     and therefore its JSONL export and summary — is byte-identical
//     run-to-run and at any trial-runner parallelism, which makes the
//     recorder double as a correctness oracle.
//
// The recorder is NOT safe for concurrent use; attach it only to
// components driven by one simulation kernel (or one goroutine).
package trace

import (
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp (duration since simulation start). It
// mirrors sim.Time without importing the kernel package.
type Time = time.Duration

// Layer identifies the protocol layer an event originated from.
type Layer uint8

// Layers, bottom-up through the stack.
const (
	LayerRadio Layer = iota
	LayerMAC
	LayerLink
	LayerRPL
	LayerCoAP
	// LayerFault carries injected-fault events (crash, recover,
	// partition) — the churn engine's schedule, recorded alongside the
	// protocol reactions it provokes.
	LayerFault
	// LayerStore carries data-storage tier events (ingest, segment
	// flushes, compaction, anti-entropy) from the sharded store.
	LayerStore
	numLayers
	// LayerAny matches every layer in a Filter.
	LayerAny Layer = 0xff
)

var layerNames = [numLayers]string{"radio", "mac", "link", "rpl", "coap", "fault", "store"}

// String returns the layer's lowercase name.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "?"
}

// ParseLayer maps a lowercase layer name ("radio", "mac", "link",
// "rpl", "coap", "fault", "store") back to its Layer, for command-line
// filters.
func ParseLayer(name string) (Layer, bool) {
	for i, n := range layerNames {
		if n == name {
			return Layer(i), true
		}
	}
	return LayerAny, false
}

// Type identifies what happened. Each type belongs to exactly one layer;
// the A/B/F fields of an Event are interpreted per type as documented on
// the constants.
type Type uint8

// Event types. A, B, F describe the typed payload fields.
const (
	// RadioTx: a frame went on the air. A = destination (-1 broadcast),
	// B = size in bytes.
	RadioTx Type = iota
	// RadioDeliver: a frame was decoded by a receiver. Node is the
	// receiver, A = sender, B = size in bytes.
	RadioDeliver
	// RadioLoss: a frame copy was lost to stochastic link loss. Node is
	// the intended receiver, A = sender.
	RadioLoss
	// RadioCollision: a frame copy was destroyed by co-channel
	// interference. Node is the receiver, A = the transmitter whose frame
	// was corrupted.
	RadioCollision

	// MACTx: a data frame transmission attempt. A = destination, B = MAC
	// sequence number.
	MACTx
	// MACBackoff: carrier sense found the channel busy and the sender
	// backed off. A = backoff exponent.
	MACBackoff
	// MACRetry: an ACK timeout triggered a retransmission. A =
	// destination, B = attempt number.
	MACRetry
	// MACTxFail: the retry budget was exhausted and the send failed.
	// A = destination.
	MACTxFail
	// MACWakeup: a duty-cycled receiver woke for a channel check.
	MACWakeup
	// MACStrobe: an LPL sender strobed a data copy. A = destination,
	// B = MAC sequence number.
	MACStrobe
	// MACBeacon: a receiver-initiated MAC advertised a wake-up.
	MACBeacon

	// LinkAck: a unicast link transmission was acknowledged. A = peer,
	// F = the peer's ETX estimate after the update.
	LinkAck
	// LinkDrop: a unicast link transmission failed (ARQ gave up).
	// A = peer, F = the peer's ETX estimate after the update.
	LinkDrop

	// RPLDIOSent: a DIO beacon was sent. A = destination (-1 multicast),
	// B = advertised rank.
	RPLDIOSent
	// RPLDIORecv: a DIO was received. A = sender, B = its advertised rank.
	RPLDIORecv
	// RPLDAOSent: a DAO (downward-route advertisement) was sent.
	// A = parent, B = DAO sequence number.
	RPLDAOSent
	// RPLParentSwitch: the preferred parent changed. A = new parent
	// (-1 detached), B = new rank.
	RPLParentSwitch
	// RPLDetach: the node left the DODAG (poisoned its subtree).
	RPLDetach
	// RPLNoRoute: a datagram was dropped for lack of a route.
	// A = destination.
	RPLNoRoute
	// RPLForward: a datagram was handed to the link layer toward its
	// next hop (both origination and multi-hop forwarding). A = next
	// hop, B = final destination.
	RPLForward
	// RPLDeliver: a datagram reached its destination and was handed up
	// to the protocol handler. A = source, B = protocol number.
	RPLDeliver

	// RNFDSentinel: the node qualified as an RNFD sentinel (good link to
	// the root with proven history).
	RNFDSentinel
	// RNFDSuspect: a sentinel's local timeout expired and it raised a
	// suspicion. B = epoch.
	RNFDSuspect
	// RNFDSuspectHeard: a flooded suspicion was learned. A = the
	// suspecting sentinel, B = distinct suspects known after learning it.
	RNFDSuspectHeard
	// RNFDVerdict: the node declared the root dead. B = distinct
	// suspects at verdict time.
	RNFDVerdict

	// CoAPRequest: a client request was sent. A = message ID, B = code.
	CoAPRequest
	// CoAPResponse: a response (or notification) was delivered to a
	// waiting request. A = message ID, B = code.
	CoAPResponse
	// CoAPRetransmit: the message layer retransmitted a confirmable.
	// A = message ID, B = attempt number.
	CoAPRetransmit
	// CoAPTimeout: the message layer gave up on a confirmable.
	// A = message ID.
	CoAPTimeout

	// FaultCrash: a node was crashed by the fault injector.
	FaultCrash
	// FaultRecover: a crashed node was restarted by the fault injector.
	FaultRecover
	// FaultPartition: the medium was split into isolated groups.
	// Node = -1, A = number of explicit groups installed.
	FaultPartition
	// FaultHeal: a partition was removed. Node = -1.
	FaultHeal
	// FaultLink: a directed link's delivery ratio was overridden (burst
	// loss, flapping). A = the link's far end, F = the new PRR
	// (negative = override removed, the link is restored).
	FaultLink

	// StoreAppend: a batch of readings was ingested into a shard.
	// Node = the store's node ID (-1 for a free-standing store),
	// A = shard index, B = batch point count.
	StoreAppend
	// StoreFlush: an open series head was closed into an encoded
	// segment. A = shard index, B = points flushed.
	StoreFlush
	// StoreCompact: closed segments were merged. A = shard index,
	// B = segments compacted away.
	StoreCompact
	// StoreAntiEntropy: AP gossip merged remote points into a replica.
	// A = shard index, B = points merged.
	StoreAntiEntropy
	// StoreUnavail: a CP operation failed for lack of quorum.
	// A = shard index.
	StoreUnavail

	numTypes
)

// typeInfo maps each Type to its layer and wire name.
var typeInfo = [numTypes]struct {
	layer Layer
	name  string
}{
	RadioTx:          {LayerRadio, "tx"},
	RadioDeliver:     {LayerRadio, "deliver"},
	RadioLoss:        {LayerRadio, "loss"},
	RadioCollision:   {LayerRadio, "collision"},
	MACTx:            {LayerMAC, "tx"},
	MACBackoff:       {LayerMAC, "backoff"},
	MACRetry:         {LayerMAC, "retry"},
	MACTxFail:        {LayerMAC, "tx_fail"},
	MACWakeup:        {LayerMAC, "wakeup"},
	MACStrobe:        {LayerMAC, "strobe"},
	MACBeacon:        {LayerMAC, "beacon"},
	LinkAck:          {LayerLink, "ack"},
	LinkDrop:         {LayerLink, "drop"},
	RPLDIOSent:       {LayerRPL, "dio_sent"},
	RPLDIORecv:       {LayerRPL, "dio_recv"},
	RPLDAOSent:       {LayerRPL, "dao_sent"},
	RPLParentSwitch:  {LayerRPL, "parent_switch"},
	RPLDetach:        {LayerRPL, "detach"},
	RPLNoRoute:       {LayerRPL, "no_route"},
	RPLForward:       {LayerRPL, "forward"},
	RPLDeliver:       {LayerRPL, "deliver"},
	RNFDSentinel:     {LayerRPL, "rnfd_sentinel"},
	RNFDSuspect:      {LayerRPL, "rnfd_suspect"},
	RNFDSuspectHeard: {LayerRPL, "rnfd_suspect_heard"},
	RNFDVerdict:      {LayerRPL, "rnfd_verdict"},
	CoAPRequest:      {LayerCoAP, "request"},
	CoAPResponse:     {LayerCoAP, "response"},
	CoAPRetransmit:   {LayerCoAP, "retransmit"},
	CoAPTimeout:      {LayerCoAP, "timeout"},
	FaultCrash:       {LayerFault, "crash"},
	FaultRecover:     {LayerFault, "recover"},
	FaultPartition:   {LayerFault, "partition"},
	FaultHeal:        {LayerFault, "heal"},
	FaultLink:        {LayerFault, "link"},
	StoreAppend:      {LayerStore, "append"},
	StoreFlush:       {LayerStore, "flush"},
	StoreCompact:     {LayerStore, "compact"},
	StoreAntiEntropy: {LayerStore, "anti_entropy"},
	StoreUnavail:     {LayerStore, "unavail"},
}

// Layer returns the protocol layer the type belongs to.
func (t Type) Layer() Layer {
	if int(t) < len(typeInfo) {
		return typeInfo[t].layer
	}
	return LayerAny
}

// String returns the type's wire name (unique within its layer).
func (t Type) String() string {
	if int(t) < len(typeInfo) {
		return typeInfo[t].name
	}
	return "?"
}

// Event is one recorded occurrence. It is a fixed-size scalar record so
// the ring never allocates per event. The meaning of A, B, and F is
// documented per Type.
type Event struct {
	// At is the virtual time of the event.
	At Time
	// Node is the node the event happened on; -1 for network-wide events.
	Node int32
	// Type identifies what happened (and implies the Layer).
	Type Type
	// A and B are typed integer fields (peer IDs, sequence numbers,
	// sizes, ranks — per Type).
	A, B int64
	// F is a typed float field (e.g. an ETX estimate).
	F float64
	// J is the journey ID of the logical packet the event concerns, or
	// 0 for events not tied to a packet (control beacons, bus traffic,
	// injected faults). IDs are kernel-scoped counters carried on
	// netbuf.Buffer; see that package's Journeys.
	J uint64
}

// Recorder is the per-kernel flight recorder. A nil Recorder is valid
// and permanently disabled: every method is a safe no-op, and the Emit
// fast path is a single branch.
type Recorder struct {
	now     func() Time
	buf     []Event
	next    int  // next slot to write
	wrapped bool // the ring has overwritten old events at least once
	total   uint64
	counts  [numTypes]uint64
}

// New returns a recorder with the given ring capacity, reading virtual
// time from now (typically sim.Kernel.Now). Capacity must be positive.
func New(capacity int, now func() Time) *Recorder {
	if capacity <= 0 {
		panic("trace: non-positive recorder capacity")
	}
	if now == nil {
		panic("trace: nil clock")
	}
	return &Recorder{now: now, buf: make([]Event, capacity)}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event. On a nil (disabled) recorder it is a no-op
// that performs no allocation and no work beyond the nil check. j is
// the journey ID of the packet the event concerns (0 if none).
func (r *Recorder) Emit(node int32, typ Type, a, b int64, f float64, j uint64) {
	if r == nil {
		return
	}
	r.buf[r.next] = Event{At: r.now(), Node: node, Type: typ, A: a, B: b, F: f, J: j}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.total++
	r.counts[typ]++
}

// Total returns the number of events emitted since creation (including
// events the ring has since dropped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	kept := uint64(r.len())
	return r.total - kept
}

// len returns the number of events currently held.
func (r *Recorder) len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Events returns the retained events in emission (= virtual time) order.
// The returned slice is freshly allocated and safe to keep.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.len())
	r.Each(Filter{}, func(e Event) { out = append(out, e) })
	return out
}

// Reset discards all retained events and counts.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.next = 0
	r.wrapped = false
	r.total = 0
	r.counts = [numTypes]uint64{}
}

// Filter selects events for query and export. The zero Filter (also
// available as All()) matches everything; restrict it with the ByNode
// and ByLayers combinators. Each
// combinator *replaces* any prior restriction on its dimension, so
// ByLayers(LayerAny) on an already-restricted filter lifts the
// restriction cleanly (no stale state survives).
type Filter struct {
	node      int32
	hasNode   bool
	layerMask uint16 // one bit per Layer; 0 = no layer restriction
}

// All returns the filter that matches every event.
func All() Filter { return Filter{} }

// ByNode returns a copy of f restricted to node (-1 selects the
// network-wide events).
func (f Filter) ByNode(node int32) Filter {
	f.node, f.hasNode = node, true
	return f
}

// ByLayers returns a copy of f restricted to the union of the given
// layers, replacing any prior layer restriction. Passing no layers, or
// LayerAny anywhere in the list, lifts the restriction.
func (f Filter) ByLayers(layers ...Layer) Filter {
	f.layerMask = 0
	for _, l := range layers {
		if l >= numLayers {
			f.layerMask = 0
			return f
		}
		f.layerMask |= 1 << l
	}
	return f
}

// match reports whether e passes the filter.
func (f Filter) match(e Event) bool {
	if f.hasNode && e.Node != f.node {
		return false
	}
	if f.layerMask != 0 {
		l := e.Type.Layer()
		if l >= numLayers || f.layerMask&(1<<l) == 0 {
			return false
		}
	}
	return true
}

// Each calls fn for every retained event matching f, in emission order.
func (r *Recorder) Each(f Filter, fn func(Event)) {
	if r == nil {
		return
	}
	if r.wrapped {
		for _, e := range r.buf[r.next:] {
			if f.match(e) {
				fn(e)
			}
		}
	}
	for _, e := range r.buf[:r.next] {
		if f.match(e) {
			fn(e)
		}
	}
}

// Count returns how many events of type t were emitted (exact even when
// the ring has dropped the events themselves).
func (r *Recorder) Count(t Type) uint64 {
	if r == nil || t >= numTypes {
		return 0
	}
	return r.counts[t]
}

// defaultCapacity is the process-wide fallback ring capacity applied by
// components (e.g. core.NewStack) whose configuration leaves the
// recorder capacity unset. 0 means tracing is off by default.
var defaultCapacity atomic.Int64

// SetDefaultCapacity sets the process-wide fallback ring capacity.
// n <= 0 disables tracing by default.
func SetDefaultCapacity(n int) {
	if n < 0 {
		n = 0
	}
	defaultCapacity.Store(int64(n))
}

// DefaultCapacity returns the process-wide fallback ring capacity.
func DefaultCapacity() int { return int(defaultCapacity.Load()) }
