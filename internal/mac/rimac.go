package mac

import (
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// dwell is how long the receiver stays awake after its beacon waiting
// for data.
const dwell = 5 * time.Millisecond

// RIMACConfig configures the receiver-initiated MAC.
type RIMACConfig struct {
	Config
	// BeaconInterval is the receiver wake-and-beacon period
	// (default 500 ms). Latency per hop is ~BeaconInterval/2, as with
	// LPL, but the rendezvous cost moves from sender strobing to
	// receiver beacons.
	BeaconInterval time.Duration
	// IdleTimeout extends the wake while traffic flows (default 20 ms).
	IdleTimeout time.Duration
}

func (c *RIMACConfig) applyDefaults() {
	c.Config.applyDefaults()
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 500 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 20 * time.Millisecond
	}
}

// RIMAC is a receiver-initiated duty-cycled MAC in the style of RI-MAC
// (paper ref [27]): receivers periodically wake and advertise themselves
// with a short beacon; a sender with pending data wakes, listens for the
// target's beacon, and transmits immediately after it. Compared to LPL,
// the medium is occupied only by short beacons instead of long strobe
// trains, which behaves much better under contention.
type RIMAC struct {
	chassis
	dutyCycle
	cfg RIMACConfig

	beacons *sim.Repeater

	// Sender rendezvous state.
	waiting    bool
	waitExpire sim.Event
	contendEv  sim.Event // the pending post-beacon contention backoff, if any
	attempt    int
	gotAck     bool
	bcastUntil sim.Time

	cBeacons *metrics.Counter
}

var _ MAC = (*RIMAC)(nil)

// NewRIMAC creates a receiver-initiated MAC for node id on medium m.
func NewRIMAC(m *radio.Medium, id radio.NodeID, cfg RIMACConfig) *RIMAC {
	cfg.applyDefaults()
	r := &RIMAC{cfg: cfg}
	r.init(m, id, "rimac", &r.cfg.Config)
	r.bind(&r.chassis, &r.waiting, r.cfg.IdleTimeout)
	r.next = r.startNext
	r.cBeacons = r.counter("mac.beacons")
	return r
}

// Start begins the beacon schedule.
func (r *RIMAC) Start() {
	if r.started {
		return
	}
	r.started = true
	r.stopped = false
	r.m.SetChannel(r.id, r.cfg.Channel)
	r.m.SetListening(r.id, false)
	r.m.SetAddressRecognition(r.id, true)
	r.beacons = r.k.Every(r.cfg.BeaconInterval, r.cfg.BeaconInterval/8, r.beacon)
}

// Stop halts the MAC and fails queued sends.
func (r *RIMAC) Stop() {
	if !r.started {
		return
	}
	r.started = false
	r.stopped = true
	if r.beacons != nil {
		r.beacons.Stop()
	}
	r.sleepEv.Cancel()
	r.waitExpire.Cancel()
	r.contendEv.Cancel()
	r.setAwake(false)
	r.q.drain()
	r.sending = false
	r.waiting = false
}

// beacon is the receiver-side wake-up: advertise, then listen briefly.
func (r *RIMAC) beacon() {
	if r.stopped || r.waiting {
		return // a waiting sender is already listening continuously
	}
	r.setAwake(true)
	bcn := control(r.m.Buffers(), KindBeacon, 0)
	r.transmit(radio.Broadcast, bcn)
	bcn.Release()
	r.cBeacons.Inc()
	r.m.Recorder().Emit(int32(r.id), trace.MACBeacon, 0, 0, 0, 0)
	r.scheduleSleep(dwell)
}

func (r *RIMAC) startNext() {
	if r.q.len() == 0 || r.stopped {
		r.sending = false
		return
	}
	r.sending = true
	r.attempt = 0
	r.seq++
	r.gotAck = false
	it := r.q.front()
	// Frame once into headroom; every beacon-triggered copy (and every
	// retry window) reuses the buffer.
	frame(it.buf, KindData, r.seq)
	// Rendezvous: stay awake until the target's next beacon (or, for
	// broadcast, for one full beacon interval answering every beacon).
	r.waiting = true
	r.setAwake(true)
	window := r.cfg.BeaconInterval + r.cfg.BeaconInterval/4
	if it.to == radio.Broadcast {
		r.bcastUntil = r.k.Now() + window
	}
	r.waitExpire = r.k.Schedule(window, func() { r.waitExpired() })
}

func (r *RIMAC) waitExpired() {
	if r.stopped || !r.waiting {
		return
	}
	it := r.q.front()
	if it.to == radio.Broadcast {
		// Broadcast window over: counted as delivered to whoever woke.
		r.finish(true)
		return
	}
	r.attempt++
	if r.attempt > r.cfg.MaxRetries {
		r.cTxFailed.Inc()
		r.m.Recorder().Emit(int32(r.id), trace.MACTxFail, int64(it.to), int64(r.attempt), 0, it.buf.Journey())
		r.finish(false)
		return
	}
	r.m.Recorder().Emit(int32(r.id), trace.MACRetry, int64(it.to), int64(r.attempt), 0, it.buf.Journey())
	// Keep waiting through another beacon period.
	r.waitExpire = r.k.Schedule(r.cfg.BeaconInterval, func() { r.waitExpired() })
}

func (r *RIMAC) finish(ok bool) {
	r.waiting = false
	r.waitExpire.Cancel()
	r.scheduleSleep(dwell)
	if r.q.len() == 0 {
		r.sending = false
		return
	}
	it := r.q.pop()
	it.buf.Release()
	if it.done != nil {
		it.done(ok)
	}
	r.startNext()
}

// RadioReceive implements radio.Receiver.
func (r *RIMAC) RadioReceive(f radio.Frame) {
	kind, seq, payload, ok := r.open(f)
	if !ok {
		return
	}
	switch kind {
	case KindBeacon:
		if !r.waiting || !r.addressed(f) {
			return
		}
		it := r.q.front()
		if it.to == radio.Broadcast {
			if r.k.Now() < r.bcastUntil {
				// The queued buffer was framed in startNext; every beacon
				// answered within the window reuses it.
				r.transmit(radio.Broadcast, it.buf)
			}
			return
		}
		if f.From != it.to {
			return // someone else's beacon
		}
		// The target is awake: contend for it. Several senders may be
		// waiting on the same beacon, so back off a random slice of the
		// dwell window and carrier-sense before transmitting (RI-MAC's
		// collision-avoidance window). Losing the race just means
		// waiting for the next beacon.
		seq := r.seq
		to, buf := it.to, it.buf
		backoff := time.Duration(r.k.Rand().Int63n(int64(dwell * 4 / 5)))
		r.contendEv = r.k.Schedule(backoff, func() {
			// The r.seq and r.waiting guards ensure buf is still the
			// queued (framed, unreleased) head item when we transmit.
			if r.stopped || !r.waiting || r.seq != seq || r.gotAck {
				return
			}
			if r.m.CarrierSense(r.id) {
				return // another sender won this rendezvous
			}
			r.awaitAckSeq = seq
			r.awaitAckTo = to
			r.transmit(to, buf)
		})
	case KindData:
		if r.receiveData(f, seq, payload) && !r.waiting {
			r.setAwake(true)
			r.scheduleSleep(r.cfg.IdleTimeout)
		}
	case KindAck:
		if r.waiting && r.ackedBy(f, seq) {
			r.gotAck = true
			r.finish(true)
		}
	}
}
