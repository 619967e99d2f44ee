package mac

import (
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

const (
	// checkDuration is how long each channel check keeps the radio on.
	checkDuration = 5 * time.Millisecond
	// strobeGap is the pause between strobed data copies during which
	// the sender listens for the early ACK.
	strobeGap = 2 * time.Millisecond
)

// LPLConfig configures the low-power-listening MAC.
type LPLConfig struct {
	Config
	// WakeInterval is the receiver check period (default 500 ms). The
	// paper's §IV-B point — "a packet may take seconds to be transmitted
	// over few wireless hops" — is a direct consequence of this knob.
	WakeInterval time.Duration
	// IdleTimeout is how long a woken receiver stays on without traffic
	// before sleeping again (default 20 ms).
	IdleTimeout time.Duration
}

func (c *LPLConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.WakeInterval == 0 {
		c.WakeInterval = 500 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 20 * time.Millisecond
	}
}

// LPL is an X-MAC-style low-power-listening MAC. Receivers duty-cycle the
// radio with short periodic channel checks; senders strobe data copies for
// up to one wake interval until the receiver's early ACK arrives. Unicast
// latency per hop is therefore ~WakeInterval/2 on average, and the radio
// duty cycle is ~checkDuration/WakeInterval.
type LPL struct {
	chassis
	dutyCycle
	cfg LPLConfig

	wake *sim.Repeater

	// Strobing state.
	strobing  bool
	strobeEnd sim.Time
	gotAck    bool
	strobeEv  sim.Event // the pending strobeFn, if any

	cStrobes *metrics.Counter
	strobeFn func() // prebuilt strobeOnce closure
}

var _ MAC = (*LPL)(nil)

// NewLPL creates an LPL MAC for node id on medium m.
func NewLPL(m *radio.Medium, id radio.NodeID, cfg LPLConfig) *LPL {
	cfg.applyDefaults()
	l := &LPL{cfg: cfg}
	l.init(m, id, "lpl", &l.cfg.Config)
	l.bind(&l.chassis, &l.strobing, l.cfg.IdleTimeout)
	l.next = l.startNext
	l.cStrobes = l.counter("mac.strobes")
	l.strobeFn = l.strobeOnce
	return l
}

// Start begins the periodic channel checks.
func (l *LPL) Start() {
	if l.started {
		return
	}
	l.started = true
	l.stopped = false
	l.m.SetChannel(l.id, l.cfg.Channel)
	l.m.SetListening(l.id, false)
	// Jitter staggers wake schedules across nodes, as real LPL networks do.
	l.wake = l.k.Every(l.cfg.WakeInterval, l.cfg.WakeInterval/10, func() { l.channelCheck() })
}

// Stop turns everything off and fails queued sends.
func (l *LPL) Stop() {
	if !l.started {
		return
	}
	l.started = false
	l.stopped = true
	if l.wake != nil {
		l.wake.Stop()
	}
	l.sleepEv.Cancel()
	l.strobeEv.Cancel()
	l.setAwake(false)
	l.q.drain()
	l.sending = false
	l.strobing = false
}

// channelCheck is the periodic wake-up: listen briefly, stay up if the
// channel is busy.
func (l *LPL) channelCheck() {
	if l.stopped || l.strobing {
		return
	}
	l.m.Recorder().Emit(int32(l.id), trace.MACWakeup, 0, 0, 0, 0)
	l.setAwake(true)
	l.scheduleSleep(checkDuration)
}

func (l *LPL) startNext() {
	if l.q.len() == 0 || l.stopped {
		l.sending = false
		return
	}
	l.sending = true
	l.seq++
	it := l.q.front()
	l.strobing = true
	l.gotAck = false
	l.awaitAckSeq = l.seq
	l.awaitAckTo = it.to
	// The sender keeps its radio on for the whole strobe (to hear the
	// early ACK) and strobes for at most one full wake interval plus a
	// copy, which guarantees overlap with the target's channel check.
	l.setAwake(true)
	// Frame once into headroom; every strobe copy reuses the buffer.
	frame(it.buf, KindData, l.seq)
	air := l.m.Airtime(it.buf.Len())
	// Radio turnaround before the first copy: a node that starts
	// forwarding from its receive handler must not transmit while its
	// own link-layer ACK is still in the air.
	turnaround := strobeGap + time.Duration(l.k.Rand().Int63n(int64(2*time.Millisecond)))
	l.strobeEnd = l.k.Now() + turnaround + l.cfg.WakeInterval + 2*(air+strobeGap)
	l.strobeEv = l.k.Schedule(turnaround, l.strobeFn)
}

func (l *LPL) strobeOnce() {
	if l.stopped || !l.strobing {
		return
	}
	it := l.q.front()
	if l.gotAck {
		l.endStrobe(true)
		return
	}
	if l.k.Now() >= l.strobeEnd {
		// Broadcast strobes succeed by construction; unicast without an
		// ACK failed.
		l.endStrobe(it.to == radio.Broadcast)
		return
	}
	air := l.transmit(it.to, it.buf)
	l.cStrobes.Inc()
	l.m.Recorder().Emit(int32(l.id), trace.MACStrobe, int64(it.to), 0, 0, it.buf.Journey())
	l.strobeEv = l.k.Schedule(air+strobeGap, l.strobeFn)
}

func (l *LPL) endStrobe(ok bool) {
	l.strobing = false
	// Return to duty-cycled sleep shortly after finishing.
	l.scheduleSleep(strobeGap)
	it := l.q.pop()
	jid := it.buf.Journey()
	it.buf.Release()
	if it.done != nil {
		it.done(ok)
	}
	if !ok {
		l.cTxFailed.Inc()
		l.m.Recorder().Emit(int32(l.id), trace.MACTxFail, int64(it.to), 0, 0, jid)
	}
	l.startNext()
}

// RadioReceive implements radio.Receiver.
func (l *LPL) RadioReceive(f radio.Frame) {
	kind, seq, payload, ok := l.open(f)
	if !ok {
		return
	}
	switch kind {
	case KindData:
		if !l.receiveData(f, seq, payload) {
			// Overheard strobe for someone else: go back to sleep soon.
			l.scheduleSleep(checkDuration)
			return
		}
		// Stay up briefly in case more traffic follows (e.g., we are a
		// forwarding hop), then sleep.
		if !l.strobing {
			l.setAwake(true)
			l.scheduleSleep(l.cfg.IdleTimeout)
		}
	case KindAck:
		if l.strobing && l.ackedBy(f, seq) {
			l.gotAck = true
		}
	}
}
