package mac

import (
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// chassis is the part of a MAC that is the same under every discipline:
// identity, the send queue, sequence numbering, the awaited-ACK match,
// and the receive half of ARQ (link-layer ACK, duplicate suppression,
// delivery inside the packet's journey). Each discipline embeds one by
// value and adds only its timers, its Start/Stop and its transmit state
// machine; nothing here asks which discipline it serves.
type chassis struct {
	m      *radio.Medium
	k      *sim.Kernel
	id     radio.NodeID
	name   string
	common *Config // the discipline config's embedded Config (Channel, Tenant)

	handler Handler
	q       sendq
	seq     uint16
	dedup   *dedup

	// Instruments the event path moves, resolved once: a registry or
	// ledger lookup is a mutex and a map.
	led       *metrics.EnergyLedger
	cTxFailed *metrics.Counter

	started bool
	stopped bool
	sending bool // the head of q is in flight

	// The unicast in flight: the ACK that completes it carries this
	// sequence number and comes from this neighbor.
	awaitAckSeq uint16
	awaitAckTo  radio.NodeID

	// next is the discipline's "start on the head of the queue", called
	// when a send is queued and nothing is in flight. Prebuilt by the
	// constructor so the send path does not allocate; nil when queued
	// items simply wait for their turn.
	next func()
}

func (c *chassis) init(m *radio.Medium, id radio.NodeID, name string, common *Config) {
	c.m, c.k, c.id, c.name, c.common = m, m.Kernel(), id, name, common
	c.dedup = newDedup()
	c.led = m.Energy().Ledger(int(id))
	c.cTxFailed = c.counter("mac.tx_failed")
}

// counter resolves one of this discipline's own counters.
func (c *chassis) counter(name string) *metrics.Counter {
	return c.m.Registry().CounterWith(name, metrics.L("mac", c.name))
}

// addressed reports whether f is meant for this node: a broadcast or a
// unicast to it. CSMA, TDMA and RI-MAC do nothing with any other frame
// and say so to the medium when they start (SetAddressRecognition), so
// that it need not clone one for them; LPL does not — an overheard
// strobe reschedules its sleep.
func (c *chassis) addressed(f radio.Frame) bool {
	return f.To == c.id || f.To == radio.Broadcast
}

// Name implements MAC.
func (c *chassis) Name() string { return c.name }

// OnReceive implements MAC.
func (c *chassis) OnReceive(h Handler) { c.handler = h }

// QueueLen implements MAC.
func (c *chassis) QueueLen() int { return c.q.len() }

// Buffers implements MAC.
func (c *chassis) Buffers() *netbuf.Pool { return c.m.Buffers() }

// Retune implements MAC.
func (c *chassis) Retune(ch uint8) {
	c.common.Channel = ch
	if c.started {
		c.m.SetChannel(c.id, ch)
	}
}

// Reboot implements MAC.
func (c *chassis) Reboot() {
	c.seq = 0
	c.dedup.reset()
}

// ForgetNeighbor implements MAC.
func (c *chassis) ForgetNeighbor(id radio.NodeID) { c.dedup.forget(id) }

// Send implements MAC.
func (c *chassis) Send(to radio.NodeID, payload []byte, done DoneFunc) {
	if !c.started {
		if done != nil {
			done(false)
		}
		return
	}
	c.enqueue(to, copyIn(c.m.Buffers(), payload), done)
}

// SendBuf implements MAC.
func (c *chassis) SendBuf(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	if !c.started {
		b.Release()
		if done != nil {
			done(false)
		}
		return
	}
	c.enqueue(to, b, done)
}

func (c *chassis) enqueue(to radio.NodeID, b *netbuf.Buffer, done DoneFunc) {
	c.q.push(outItem{to: to, buf: b, done: done})
	if c.next != nil && !c.sending {
		c.next()
	}
}

// transmit puts b on the air from this node, on its channel and under
// its tenant tag, and returns the airtime.
func (c *chassis) transmit(to radio.NodeID, b *netbuf.Buffer) sim.Time {
	return c.m.Send(radio.Frame{
		From: c.id, To: to, Channel: c.common.Channel, Tenant: c.common.Tenant,
		Size: b.Len(), Payload: b,
	})
}

// sendAck acknowledges the unicast data frame seq from neighbor to.
func (c *chassis) sendAck(to radio.NodeID, seq uint16) {
	ack := control(c.m.Buffers(), KindAck, seq)
	c.transmit(to, ack)
	ack.Release()
}

// open decodes an arriving frame's MAC header. ok is false when the MAC
// is not running or the frame is malformed.
func (c *chassis) open(f radio.Frame) (kind Kind, seq uint16, payload []byte, ok bool) {
	if !c.started || f.Payload == nil {
		return 0, 0, nil, false
	}
	kind, seq, payload, err := decode(f.Payload.Bytes())
	return kind, seq, payload, err == nil
}

// receiveData is the receive half of ARQ for one data frame. It reports
// false for an overheard unicast addressed to someone else. A unicast to
// this node is ACKed even when it is a duplicate — the sender may have
// missed the first ACK — and a frame that is not a retransmission of the
// previous one from that neighbor reaches the handler.
func (c *chassis) receiveData(f radio.Frame, seq uint16, payload []byte) bool {
	if !c.addressed(f) {
		return false
	}
	if f.To == c.id {
		c.sendAck(f.From, seq)
	}
	if c.dedup.fresh(f.From, seq) && c.handler != nil {
		// Upper layers run in the context of this packet's journey;
		// anything they send synchronously continues it.
		js := c.m.Buffers().Journeys()
		prev := js.SetCurrent(f.Payload.Journey())
		c.handler(f.From, payload)
		js.SetCurrent(prev)
	}
	return true
}

// ackedBy reports whether f is the ACK the in-flight unicast waits for:
// addressed to this node, carrying the awaited sequence number, and sent
// by the neighbor the data went to.
func (c *chassis) ackedBy(f radio.Frame, seq uint16) bool {
	return f.To == c.id && seq == c.awaitAckSeq && f.From == c.awaitAckTo
}

// dutyCycle is the receiver on/off switch of a duty-cycled discipline
// (LPL, RI-MAC), embedded beside the chassis: it charges idle listening
// for every awake span and takes the "may the radio go off now?"
// decision, which is the same under both — never while the discipline's
// transmit state machine holds the radio on, and not in the middle of a
// frame.
type dutyCycle struct {
	c    *chassis
	hold *bool         // the discipline is transmitting (LPL strobing, RI-MAC waiting for a beacon)
	idle time.Duration // how much longer to stay up when the decision finds a frame in the air

	sleepEv   sim.Event
	sleepFn   func() // prebuilt sleepCheck
	awake     bool
	lastAwake sim.Time
}

func (d *dutyCycle) bind(c *chassis, hold *bool, idle time.Duration) {
	d.c, d.hold, d.idle = c, hold, idle
	d.sleepFn = d.sleepCheck
}

func (d *dutyCycle) setAwake(on bool) {
	if on == d.awake {
		return
	}
	c := d.c
	if on {
		d.lastAwake = c.k.Now()
	} else {
		// Charge idle listening for the awake span.
		c.led.Spend(metrics.StateListen, c.k.Now()-d.lastAwake)
	}
	d.awake = on
	c.m.SetListening(c.id, on)
}

// scheduleSleep (re)arms the radio-off decision after from now.
func (d *dutyCycle) scheduleSleep(after time.Duration) {
	d.sleepEv.Cancel()
	d.sleepEv = d.c.k.Schedule(after, d.sleepFn)
}

func (d *dutyCycle) sleepCheck() {
	if d.c.stopped || *d.hold {
		return
	}
	if d.c.m.CarrierSense(d.c.id) {
		// Mid-frame: stay up long enough to decode it.
		d.scheduleSleep(d.idle)
		return
	}
	d.setAwake(false)
}
