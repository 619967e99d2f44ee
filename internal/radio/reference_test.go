package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// The reference medium: Send, ApplyForeign, launch, nearActive and
// complete as they were before the fan-out walked a link list and
// completion jumped from taker to taker — every attached node asked,
// in ID order, whether it hears the frame (audibleAt, then the override
// PRR or the distance PRR), every receiver visited again at completion,
// energy charged through the ledger. It reads no link list, so it does
// not share what it checks. TestFanOutReferenceParity drives it beside
// the medium under test.

func (m *Medium) refSend(f Frame) time.Duration {
	src := m.mustNode(f.From)
	if src.down {
		return 0
	}
	if f.Payload != nil {
		if n := f.Payload.Len(); f.Size < n {
			f.Size = n
		}
		f.Payload.Retain()
	}
	air := m.Airtime(f.Size)
	now := m.k.Now()
	m.cTxFrames.Inc()
	m.cTxBytes.Add(float64(f.Size))
	m.energy.Ledger(int(src.id)).Spend(metrics.StateTx, air)
	m.rec.Emit(int32(f.From), trace.RadioTx, int64(f.To), int64(f.Size), 0, payloadJourney(f.Payload))

	tx := m.getTx()
	tx.frame = f
	tx.start, tx.end = now, now+air
	tx.srcPos = src.pos
	tx.src = src
	m.refLaunch(tx)
	if m.announce != nil {
		m.announce(f, src.pos, now, now+air)
	}
	return air
}

func (m *Medium) refApplyForeign(a Announcement) {
	if a.End <= m.k.Now() {
		m.cDropLate.Inc()
		return
	}
	tx := m.getTx()
	tx.frame = Frame{From: a.From, To: a.To, Channel: a.Channel, Tenant: a.Tenant, Size: a.Size}
	if a.Payload != nil {
		b := m.pool.Get()
		b.Append(a.Payload)
		tx.frame.Payload = b
	}
	tx.start, tx.end = a.Start, a.End
	tx.srcPos = a.Pos
	m.refLaunch(tx)
}

func (m *Medium) refNearActive(pos Position, ch uint8, now sim.Time) []*transmission {
	var near []*transmission
	limit := 2 * m.params.RangeMax
	prune := !m.brute && len(m.prrOver) == 0
	for _, other := range m.active {
		if other.end <= now || other.frame.Channel != ch {
			continue
		}
		if prune && other.epoch == m.layoutGen {
			if pos.Distance(other.srcPos) >= limit {
				continue
			}
		}
		near = append(near, other)
	}
	return near
}

func (m *Medium) refLaunch(tx *transmission) {
	f := tx.frame
	pos := tx.srcPos
	air := tx.end - tx.start
	tx.epoch = m.layoutGen
	var collisions, crossTenant, lost int

	near := m.refNearActive(pos, f.Channel, m.k.Now())
	for _, other := range near {
		for i := range other.dels {
			d := &other.dels[i]
			if !d.corrupted && m.audibleAt(f.From, pos, d.n) {
				d.corrupted = true
				collisions++
				if other.frame.Tenant != f.Tenant {
					crossTenant++
				}
				m.rec.Emit(int32(d.n.id), trace.RadioCollision, int64(other.frame.From), int64(f.From), 0, payloadJourney(other.frame.Payload))
			}
		}
	}

	for _, n := range m.ordered {
		if n.down || !n.listening || n.channel != f.Channel || !m.audibleAt(f.From, pos, n) {
			continue
		}
		prr, over := m.prrOver[[2]NodeID{f.From, n.id}]
		if !over {
			prr = m.prrAtDistance(pos.Distance(n.pos))
		}
		m.energy.Ledger(int(n.id)).Spend(metrics.StateRx, air)
		tx.dels = append(tx.dels, delivery{n: n})
		d := &tx.dels[len(tx.dels)-1]
		for _, other := range near {
			if m.txAudible(other, n) {
				d.corrupted = true
				collisions++
				if other.frame.Tenant != f.Tenant {
					crossTenant++
				}
				m.rec.Emit(int32(n.id), trace.RadioCollision, int64(other.frame.From), int64(f.From), 0, payloadJourney(f.Payload))
				break
			}
		}
		if !d.corrupted && m.k.Rand().Float64() >= prr {
			d.corrupted = true
			lost++
			m.rec.Emit(int32(n.id), trace.RadioLoss, int64(f.From), int64(f.Size), 0, payloadJourney(f.Payload))
		}
	}
	m.cCollisions.Add(float64(collisions))
	m.cCollXTen.Add(float64(crossTenant))
	m.cDropLoss.Add(float64(lost))

	m.active = append(m.active, tx)
	m.k.At(tx.end, func() { m.refComplete(tx) })
}

func (m *Medium) refComplete(tx *transmission) {
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	f := tx.frame
	var gone, rx int
	for i := range tx.dels {
		d := &tx.dels[i]
		n := d.n
		if n.down || !n.listening || n.channel != f.Channel {
			gone++
			continue
		}
		if d.corrupted {
			continue
		}
		rx++
		m.rec.Emit(int32(n.id), trace.RadioDeliver, int64(f.From), int64(f.Size), 0, payloadJourney(f.Payload))
		if n.recognizes && f.To != n.id && f.To != Broadcast {
			continue
		}
		if f.Payload != nil {
			view := f.Payload.Clone()
			df := f
			df.Payload = view
			n.recv.RadioReceive(df)
			view.Release()
		} else {
			n.recv.RadioReceive(f)
		}
	}
	m.cDropGone.Add(float64(gone))
	m.cRxFrames.Add(float64(rx))
	if f.Payload != nil {
		f.Payload.Release()
	}
	m.putTx(tx)
}

// fanSide is one of the two media a reference sequence drives: the
// medium under test (ref false) or the reference (ref true).
type fanSide struct {
	ref bool
	k   *sim.Kernel
	m   *Medium
	rec *trace.Recorder
	log []string // every hand-over: when, who, from, to, what
}

func (s *fanSide) send(f Frame) time.Duration {
	if s.ref {
		return s.m.refSend(f)
	}
	return s.m.Send(f)
}

func (s *fanSide) applyForeign(a Announcement) {
	if s.ref {
		s.m.refApplyForeign(a)
		return
	}
	s.m.ApplyForeign(a)
}

// referenceSequence draws a program and runs it on the medium under test
// and on the reference, seeded alike: local broadcasts and unicasts, to
// receivers with and without address recognition; PRR overrides and a
// link filter; foreign senders; moves; radios going down, deaf, to
// another channel or deaf to others' unicasts — between sends and from
// inside receive handlers while a completion is walking its deliveries;
// replies sent from handlers; the recorder attached and detached. Both
// must hand over the same frames in the same order and leave the same
// counters, trace events, ledgers and random generator position.
func referenceSequence(t *testing.T, seed int64, nodes int) {
	rng := rand.New(rand.NewSource(seed))
	var sides [2]*fanSide
	for i := range sides {
		k := sim.New(seed)
		sides[i] = &fanSide{ref: i == 1, k: k, m: NewMedium(k, DefaultParams(), nil), rec: trace.New(1<<15, k.Now)}
	}
	each := func(fn func(s *fanSide)) {
		for _, s := range sides {
			fn(s)
		}
	}
	span := 40 + rng.Float64()*160
	spot := func() Position {
		return Position{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}
	}
	next := NodeID(0)
	var ids []NodeID
	attach := func() {
		id, pos := next, spot()
		next++
		listen, recognize := rng.Float64() < 0.85, rng.Intn(2) == 0
		each(func(s *fanSide) {
			hands := 0
			s.m.Attach(id, pos, ReceiverFunc(func(f Frame) {
				p := f.Payload.Bytes()
				s.log = append(s.log, fmt.Sprintf("%v %d<-%d to %d %x", s.k.Now(), id, f.From, f.To, p))
				hands++
				// What the handler does is a function of what it was
				// handed, so both sides do the same while they agree.
				h := int(p[0])*31 + int(id)*7 + hands
				other := NodeID(h % int(next))
				switch h % 13 {
				case 0:
					s.m.SetListening(other, !s.m.Listening(other))
				case 1:
					s.m.SetDown(other, !s.m.Down(other))
				case 2:
					s.m.SetChannel(other, s.m.ChannelOf(other)^1)
				case 3:
					s.m.SetAddressRecognition(other, !s.m.AddressRecognition(other))
				case 4, 5, 6:
					if len(p) == 1 { // reply, but never to a reply
						b := s.m.Buffers().Get()
						b.Append([]byte{p[0], 0xAC})
						s.send(Frame{From: id, To: f.From, Channel: s.m.ChannelOf(id), Size: 12, Payload: b})
						b.Release()
					}
				}
			}))
			s.m.SetListening(id, listen)
			s.m.SetAddressRecognition(id, recognize)
		})
		ids = append(ids, id)
	}
	for i := 0; i < nodes; i++ {
		attach()
	}
	any := func() NodeID { return ids[rng.Intn(len(ids))] }
	foreignAt := map[NodeID]Position{}
	payload := byte(0)
	for step := 0; step < 60+2*nodes; step++ {
		switch op := rng.Intn(24); {
		case op < 10: // a local send, broadcast or unicast
			from, to, ch := any(), Broadcast, uint8(rng.Intn(2))
			if rng.Intn(3) > 0 {
				to = any()
			}
			payload++
			p := payload
			each(func(s *fanSide) {
				b := s.m.Buffers().Get()
				b.Append([]byte{p})
				s.send(Frame{From: from, To: to, Channel: ch, Size: 10 + int(p%40), Payload: b})
				b.Release()
			})
		case op < 12: // a sender another stripe hosts
			from := NodeID(1000 + rng.Intn(3))
			pos, known := foreignAt[from]
			if !known || rng.Intn(2) == 0 {
				pos = spot()
				foreignAt[from] = pos
			}
			to := Broadcast
			if rng.Intn(2) == 0 {
				to = any()
			}
			payload++
			p := payload
			each(func(s *fanSide) {
				now := s.k.Now()
				s.applyForeign(Announcement{From: from, To: to, Pos: pos, Size: 20, Start: now, End: now + s.m.Airtime(20), Payload: []byte{p}})
			})
		case op < 13:
			attach()
		case op < 15: // a move: a small step, or a jump
			id := any()
			to := spot()
			if rng.Intn(2) == 0 {
				at := sides[0].m.PositionOf(id)
				to = Position{X: at.X + rng.Float64()*6 - 3, Y: at.Y + rng.Float64()*6 - 3}
			}
			each(func(s *fanSide) { s.m.SetPosition(id, to) })
		case op < 17: // an override: installed, zeroed or removed
			from, to := any(), any()
			if rng.Intn(4) == 0 {
				from = NodeID(1000 + rng.Intn(3))
			}
			prr := []float64{rng.Float64(), 1, 0, -1}[rng.Intn(4)]
			each(func(s *fanSide) { s.m.SetLinkPRR(from, to, prr) })
		case op < 18:
			var f LinkFilter
			if rng.Intn(2) == 0 {
				mod := NodeID(2 + rng.Intn(5))
				f = func(a, b NodeID) bool { return (a+b)%mod != 0 }
			}
			each(func(s *fanSide) { s.m.SetLinkFilter(f) })
		case op < 19:
			id, down := any(), rng.Intn(3) == 0
			each(func(s *fanSide) { s.m.SetDown(id, down) })
		case op < 20:
			id, on := any(), rng.Intn(3) > 0
			each(func(s *fanSide) { s.m.SetListening(id, on) })
		case op < 21:
			id, ch := any(), uint8(rng.Intn(2))
			each(func(s *fanSide) { s.m.SetChannel(id, ch) })
		case op < 22:
			id, on := any(), rng.Intn(2) == 0
			each(func(s *fanSide) { s.m.SetAddressRecognition(id, on) })
		default: // the recorder attached or detached
			on := rng.Intn(2) == 0
			each(func(s *fanSide) {
				if on {
					s.m.SetRecorder(s.rec)
				} else {
					s.m.SetRecorder(nil)
				}
			})
		}
		d := time.Duration(rng.Intn(1500)) * time.Microsecond
		each(func(s *fanSide) { s.k.RunFor(d) })
	}
	each(func(s *fanSide) { s.k.Run() })

	ctx := fmt.Sprintf("seed %d, %d nodes", seed, nodes)
	a, b := sides[0], sides[1]
	if !reflect.DeepEqual(a.log, b.log) {
		t.Fatalf("%s: hand-overs differ:\n under test %v\n reference  %v", ctx, a.log, b.log)
	}
	for _, name := range b.m.Registry().CounterNames() {
		if x, y := a.m.Registry().Counter(name).Value(), b.m.Registry().Counter(name).Value(); x != y {
			t.Fatalf("%s: %s under test %v != reference %v", ctx, name, x, y)
		}
	}
	if x, y := a.rec.Events(), b.rec.Events(); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: trace events differ (%d under test, %d reference)", ctx, len(x), len(y))
	}
	for _, id := range ids {
		for st := metrics.StateSleep; st <= metrics.StateCPU; st++ {
			if x, y := a.m.Energy().Ledger(int(id)).Duration(st), b.m.Energy().Ledger(int(id)).Duration(st); x != y {
				t.Fatalf("%s: node %d %v under test %v != reference %v", ctx, id, st, x, y)
			}
		}
	}
	if x, y := a.k.Rand().Int63(), b.k.Rand().Int63(); x != y {
		t.Fatalf("%s: the kernels' next random draw differs: %d != %d", ctx, x, y)
	}
}

// TestFanOutReferenceParity: over drawn sequences, the fan-out over a
// receiver list and the completion that visits only the takers do what
// the reference's visit-everyone loops did, to the trace event.
func TestFanOutReferenceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 80; trial++ {
		referenceSequence(t, rng.Int63(), 2+rng.Intn(60))
	}
}
