package mac

import (
	"fmt"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// TDMAConfig configures the synchronized-pipeline MAC. Slots are global:
// all nodes share the epoch structure and slot boundaries (the tight time
// synchronization Dozer-class protocols maintain; the simulation gives it
// to us for free, a real deployment pays a small beaconing cost for it).
type TDMAConfig struct {
	Config
	// SlotDuration is the length of one slot (default 10 ms), sized to
	// fit a data frame plus its in-slot ACK.
	SlotDuration time.Duration
	// SlotsPerEpoch is the number of slots in an epoch.
	SlotsPerEpoch int
	// TxSlot is the slot index in which this node may transmit.
	// Negative means the node never transmits (e.g., the root).
	TxSlot int
	// RxSlots are the slot indices during which this node listens
	// (typically its children's TxSlots).
	RxSlots []int
}

func (c *TDMAConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.SlotDuration == 0 {
		c.SlotDuration = 10 * time.Millisecond
	}
	if c.SlotsPerEpoch == 0 {
		c.SlotsPerEpoch = 10
	}
}

// TDMA is a synchronized staggered-slot MAC. With slots assigned by
// descending tree depth, a packet generated at a leaf traverses one hop
// per slot and reaches the root within a single epoch — the paper's
// "highly synchronous end-to-end communication involving tight
// coordination of multiple devices" (§IV-B). Latency is hops×slot instead
// of hops×(wake interval/2), and the radio is on only during owned slots.
type TDMA struct {
	chassis
	cfg TDMAConfig

	attempt int
	pending []sim.Event // this epoch's slot events and the next epoch's re-arm
	rxEnd   sim.Event   // the pending end of an rx slot, if any

	gotAck      bool
	seqAssigned bool

	cRetries *metrics.Counter
	endTxFn  func() // prebuilt endTxSlot closure
}

var _ MAC = (*TDMA)(nil)

// NewTDMA creates a TDMA MAC for node id on medium m.
func NewTDMA(m *radio.Medium, id radio.NodeID, cfg TDMAConfig) *TDMA {
	cfg.applyDefaults()
	if cfg.TxSlot >= cfg.SlotsPerEpoch {
		panic(fmt.Sprintf("mac: TxSlot %d outside epoch of %d slots", cfg.TxSlot, cfg.SlotsPerEpoch))
	}
	for _, s := range cfg.RxSlots {
		if s < 0 || s >= cfg.SlotsPerEpoch {
			panic(fmt.Sprintf("mac: RxSlot %d outside epoch of %d slots", s, cfg.SlotsPerEpoch))
		}
	}
	t := &TDMA{cfg: cfg}
	t.init(m, id, "tdma", &t.cfg.Config)
	// A queued send starts nothing, its slot will come — unless the node
	// has no transmit slot (e.g. the root): then the send is refused,
	// failing the item that was just queued.
	if cfg.TxSlot < 0 {
		t.next = t.q.drain
	}
	t.cRetries = t.counter("mac.retries")
	t.endTxFn = t.endTxSlot
	return t
}

// Reboot implements MAC.
func (t *TDMA) Reboot() {
	t.chassis.Reboot()
	t.seqAssigned = false
}

// Epoch returns the epoch length.
func (t *TDMA) Epoch() time.Duration {
	return time.Duration(t.cfg.SlotsPerEpoch) * t.cfg.SlotDuration
}

// guard is the intra-slot offset before data goes on the air.
func (t *TDMA) guard() time.Duration { return t.cfg.SlotDuration / 8 }

// Start aligns the node to the global slot structure.
func (t *TDMA) Start() {
	if t.started {
		return
	}
	t.started = true
	t.stopped = false
	t.m.SetChannel(t.id, t.cfg.Channel)
	t.m.SetListening(t.id, false)
	t.m.SetAddressRecognition(t.id, true)
	t.scheduleEpoch()
}

// Stop cancels the schedule and fails queued sends.
func (t *TDMA) Stop() {
	if !t.started {
		return
	}
	t.started = false
	t.stopped = true
	for _, e := range t.pending {
		e.Cancel()
	}
	t.pending = nil
	t.rxEnd.Cancel()
	t.m.SetListening(t.id, false)
	t.q.drain()
	t.seqAssigned = false
}

func (t *TDMA) scheduleEpoch() {
	if t.stopped {
		return
	}
	epoch := t.Epoch()
	now := t.k.Now()
	// Next epoch boundary at or after now.
	boundary := (now + epoch - 1) / epoch * epoch
	if boundary == now && now != 0 {
		boundary += epoch
	}
	t.pending = t.pending[:0]
	if t.cfg.TxSlot >= 0 {
		// Transmit a guard interval into the slot so receivers (whose
		// listen events fire at the boundary) are guaranteed awake.
		at := boundary + time.Duration(t.cfg.TxSlot)*t.cfg.SlotDuration + t.guard()
		t.pending = append(t.pending, t.k.At(at, func() { t.txSlot() }))
	}
	for _, s := range t.cfg.RxSlots {
		at := boundary + time.Duration(s)*t.cfg.SlotDuration
		t.pending = append(t.pending, t.k.At(at, func() { t.rxSlot() }))
	}
	// Re-arm for the next epoch just before it begins.
	t.pending = append(t.pending, t.k.At(boundary+epoch-time.Nanosecond, func() { t.scheduleEpoch() }))
}

func (t *TDMA) rxSlot() {
	if t.stopped {
		return
	}
	t.m.SetListening(t.id, true)
	t.led.Spend(metrics.StateListen, t.cfg.SlotDuration)
	t.rxEnd = t.k.Schedule(t.cfg.SlotDuration, func() {
		// Another slot may have turned the radio on again; only sleep
		// if no rx slot is in progress. Slots are non-overlapping by
		// construction, so unconditional off is correct here.
		if !t.stopped {
			t.m.SetListening(t.id, false)
		}
	})
}

func (t *TDMA) txSlot() {
	if t.stopped || t.q.len() == 0 {
		return
	}
	it := t.q.front()
	if !t.seqAssigned {
		t.seq++
		t.seqAssigned = true
		t.attempt = 0
		// Frame once into headroom; epoch retries reuse the buffer.
		frame(it.buf, KindData, t.seq)
	}
	t.gotAck = false
	t.awaitAckSeq = t.seq
	t.awaitAckTo = it.to
	t.m.Recorder().Emit(int32(t.id), trace.MACTx, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
	// Listen after transmitting to catch the in-slot ACK.
	t.m.SetListening(t.id, true)
	air := t.transmit(it.to, it.buf)
	t.led.Spend(metrics.StateListen, t.cfg.SlotDuration-t.guard()-air)
	t.pending = append(t.pending, t.k.Schedule(t.cfg.SlotDuration-t.guard()-time.Nanosecond, t.endTxFn))
}

func (t *TDMA) endTxSlot() {
	if t.stopped || t.q.len() == 0 {
		return
	}
	it := t.q.front()
	t.m.SetListening(t.id, false)
	ok := t.gotAck || it.to == radio.Broadcast
	if !ok {
		t.attempt++
		if t.attempt <= t.cfg.MaxRetries {
			t.cRetries.Inc()
			t.m.Recorder().Emit(int32(t.id), trace.MACRetry, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
			return // retry in next epoch's tx slot
		}
		t.cTxFailed.Inc()
		t.m.Recorder().Emit(int32(t.id), trace.MACTxFail, int64(it.to), int64(t.attempt), 0, it.buf.Journey())
	}
	fin := t.q.pop()
	fin.buf.Release()
	t.seqAssigned = false
	if fin.done != nil {
		fin.done(ok)
	}
}

// RadioReceive implements radio.Receiver.
func (t *TDMA) RadioReceive(f radio.Frame) {
	kind, seq, payload, ok := t.open(f)
	if !ok {
		return
	}
	switch kind {
	case KindData:
		t.receiveData(f, seq, payload)
	case KindAck:
		if t.ackedBy(f, seq) {
			t.gotAck = true
		}
	}
}
