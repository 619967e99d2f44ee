package mac

import (
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

const (
	// backoffSlot is the unit backoff duration: the 802.15.4 unit
	// backoff period.
	backoffSlot = 320 * time.Microsecond
	// maxBackoffExp bounds the binary-exponential backoff window: up
	// to 32 slots.
	maxBackoffExp = 5
)

// CSMAConfig configures the always-on carrier-sense MAC.
type CSMAConfig struct {
	Config
}

// CSMA is an always-listening carrier-sense MAC with binary exponential
// backoff and unicast ACKs. It provides the lowest latency and the highest
// energy cost: the baseline the duty-cycled MACs are compared against.
type CSMA struct {
	chassis
	cfg CSMAConfig

	attempt    int
	backoffExp int // the window the pending carrier sense last drew from
	// txEv is the one pending event of the transmit state machine: the
	// backoff before a carrier sense, the end of a broadcast's airtime,
	// or the ACK timeout.
	txEv sim.Event

	accrual  *sim.Repeater
	accrued  sim.Time // idle listening is charged up to here
	cRetries *metrics.Counter

	// Prebuilt hot-path closures: creating these per send would put an
	// allocation on the zero-alloc path.
	tryFn        func()
	ackTimeoutFn func()
	bcastDoneFn  func()
}

var _ MAC = (*CSMA)(nil)

// NewCSMA creates a CSMA MAC for node id on medium m and attaches it as
// the node's radio receiver. The node must already be attached to the
// medium by the caller with this MAC as receiver, or use Attach.
func NewCSMA(m *radio.Medium, id radio.NodeID, cfg CSMAConfig) *CSMA {
	cfg.applyDefaults()
	c := &CSMA{cfg: cfg}
	c.init(m, id, "csma", &c.cfg.Config)
	c.next = c.startNext
	c.cRetries = c.counter("mac.retries")
	c.tryFn = c.tryTransmit
	c.ackTimeoutFn = c.onAckTimeout
	c.bcastDoneFn = func() { c.finish(true) }
	return c
}

// Start turns the radio on permanently.
func (c *CSMA) Start() {
	if c.started {
		return
	}
	c.started = true
	c.stopped = false
	c.m.SetChannel(c.id, c.cfg.Channel)
	c.m.SetListening(c.id, true)
	c.m.SetAddressRecognition(c.id, true)
	// Accrue idle-listening energy once per simulated second.
	c.accrued = c.k.Now()
	c.accrual = c.k.Every(time.Second, 0, c.accrue)
}

// accrue charges idle listening since the last charge.
func (c *CSMA) accrue() {
	now := c.k.Now()
	c.led.Spend(metrics.StateListen, now-c.accrued)
	c.accrued = now
}

// Stop turns the radio off and fails all queued sends.
func (c *CSMA) Stop() {
	if !c.started {
		return
	}
	c.started = false
	c.stopped = true
	c.m.SetListening(c.id, false)
	if c.accrual != nil {
		c.accrual.Stop()
		c.accrue() // the part of a second since the last tick
	}
	c.txEv.Cancel()
	c.q.drain()
	c.sending = false
}

func (c *CSMA) startNext() {
	if c.q.len() == 0 || c.stopped {
		c.sending = false
		return
	}
	c.sending = true
	c.attempt = 0
	c.seq++
	// Frame once into headroom; retransmissions reuse the same buffer.
	frame(c.q.front().buf, KindData, c.seq)
	// 802.15.4 performs a random backoff before the first CCA; without
	// it, event-triggered transmissions from several nodes (e.g. all
	// neighbors answering one broadcast) align on the same instant and
	// collide deterministically.
	c.initialBackoff()
}

func (c *CSMA) initialBackoff() {
	slots := c.k.Rand().Int63n(8) + 1
	c.backoffExp = 1
	c.txEv = c.k.Schedule(time.Duration(slots)*backoffSlot, c.tryFn)
}

// tryTransmit performs carrier sense with exponential backoff, then puts
// the frame on the air.
func (c *CSMA) tryTransmit() {
	if c.stopped || c.q.len() == 0 {
		return
	}
	if c.m.CarrierSense(c.id) {
		c.backoffExp = min(c.backoffExp+1, maxBackoffExp)
		slots := c.k.Rand().Int63n(1 << uint(c.backoffExp))
		c.m.Recorder().Emit(int32(c.id), trace.MACBackoff, slots+1, int64(c.backoffExp), 0, c.q.front().buf.Journey())
		c.txEv = c.k.Schedule(time.Duration(slots+1)*backoffSlot, c.tryFn)
		return
	}
	it := c.q.front()
	c.m.Recorder().Emit(int32(c.id), trace.MACTx, int64(it.to), int64(c.attempt), 0, it.buf.Journey())
	air := c.transmit(it.to, it.buf)
	if it.to == radio.Broadcast {
		// No ACK for broadcast: complete after airtime.
		c.txEv = c.k.Schedule(air, c.bcastDoneFn)
		return
	}
	c.awaitAckSeq = c.seq
	c.awaitAckTo = it.to
	c.txEv = c.k.Schedule(air+c.cfg.AckTimeout, c.ackTimeoutFn)
}

func (c *CSMA) onAckTimeout() {
	var jid uint64
	if c.q.len() > 0 {
		jid = c.q.front().buf.Journey()
	}
	c.attempt++
	if c.attempt > c.cfg.MaxRetries {
		c.cTxFailed.Inc()
		c.m.Recorder().Emit(int32(c.id), trace.MACTxFail, int64(c.awaitAckTo), int64(c.attempt), 0, jid)
		c.finish(false)
		return
	}
	c.cRetries.Inc()
	c.m.Recorder().Emit(int32(c.id), trace.MACRetry, int64(c.awaitAckTo), int64(c.attempt), 0, jid)
	c.initialBackoff()
}

func (c *CSMA) finish(ok bool) {
	if c.q.len() == 0 {
		return
	}
	it := c.q.pop()
	it.buf.Release()
	if it.done != nil {
		it.done(ok)
	}
	c.startNext()
}

// RadioReceive implements radio.Receiver.
func (c *CSMA) RadioReceive(f radio.Frame) {
	kind, seq, payload, ok := c.open(f)
	if !ok {
		return
	}
	switch kind {
	case KindData:
		c.receiveData(f, seq, payload)
	case KindAck:
		if c.sending && c.ackedBy(f, seq) {
			c.txEv.Cancel()
			c.finish(true)
		}
	}
}
