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

// TestSetPositionVoidsLinkLists pins the list upkeep: a kept list
// follows its receivers when they move out of range and back, and its
// sender when it moves.
func TestSetPositionVoidsLinkLists(t *testing.T) {
	_, m := newTestMedium(t)
	attach(m, 1, 5, 5)
	attach(m, 2, 20, 5)
	for _, c := range []struct {
		id   NodeID
		to   Position
		want []NodeID
	}{
		{2, Position{X: 20, Y: 5}, []NodeID{2}},
		{2, Position{X: 500, Y: 5}, []NodeID{}},
		{1, Position{X: 480, Y: 5}, []NodeID{2}},
		{2, Position{X: 5, Y: 5}, []NodeID{}},
	} {
		m.SetPosition(c.id, c.to)
		if got := m.NeighborsOf(1); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("after moving %d to %v: NeighborsOf(1) = %v, want %v", c.id, c.to, got, c.want)
		}
	}
}

// TestMobileRoamOracle roams an asset tag in and out of many nodes' range.
// At every step the indexed medium must agree with an identically
// seeded brute-force medium on delivered traffic in both directions —
// any divergence in audible sets or RNG draw order would desynchronize
// the two runs immediately.
func TestMobileRoamOracle(t *testing.T) {
	const tag = NodeID(999)
	build := func(brute bool) (*sim.Kernel, *Medium, map[NodeID]*int, *int) {
		k := sim.New(42)
		m := NewMedium(k, DefaultParams(), nil)
		m.SetBruteForce(brute)
		rx := make(map[NodeID]*int)
		for i := 0; i < 100; i++ {
			id := NodeID(i)
			n := new(int)
			rx[id] = n
			m.Attach(id, Position{X: float64(i%10) * 12, Y: float64(i/10) * 12}, ReceiverFunc(func(Frame) { *n++ }))
			m.SetListening(id, true)
		}
		tagRx := new(int)
		m.Attach(tag, Position{}, ReceiverFunc(func(Frame) { *tagRx++ }))
		m.SetListening(tag, true)
		return k, m, rx, tagRx
	}
	ki, mi, rxi, tagRxi := build(false)
	kb, mb, rxb, tagRxb := build(true)

	// A diagonal walk in 9 m steps across stations 12 m apart (RangeMax
	// is 35 m): most steps change whom the tag reaches, and it leaves
	// the station grid entirely near the end.
	for step := 0; step < 40; step++ {
		pos := Position{X: -20 + float64(step)*9, Y: -15 + float64(step)*7}
		mi.SetPosition(tag, pos)
		mb.SetPosition(tag, pos)
		for _, m := range []*Medium{mi, mb} {
			m.Send(Frame{From: tag, To: Broadcast, Size: 30})
			m.Send(Frame{From: NodeID(step % 100), To: Broadcast, Size: 30})
		}
		ki.Run()
		kb.Run()
		if pi, pb := mi.PRR(tag, NodeID(step%100)), mb.PRR(tag, NodeID(step%100)); pi != pb {
			t.Fatalf("step %d: PRR indexed %v != brute %v", step, pi, pb)
		}
		if !reflect.DeepEqual(mi.NeighborsOf(tag), mb.NeighborsOf(tag)) {
			t.Fatalf("step %d: NeighborsOf diverged: %v vs %v", step, mi.NeighborsOf(tag), mb.NeighborsOf(tag))
		}
		if *tagRxi != *tagRxb {
			t.Fatalf("step %d: tag received %d (indexed) vs %d (brute)", step, *tagRxi, *tagRxb)
		}
		for id, n := range rxi {
			if *n != *rxb[id] {
				t.Fatalf("step %d: node %d received %d (indexed) vs %d (brute)", step, id, *n, *rxb[id])
			}
		}
	}
	if *tagRxi == 0 {
		t.Fatal("roam never delivered anything to the tag; test is vacuous")
	}
}

// twins is an indexed medium beside its brute-force oracle: built alike,
// seeded alike and driven through the same calls. Whatever the link
// lists remember, the two must hear the same thing.
type twins struct {
	k   [2]*sim.Kernel
	m   [2]*Medium
	log [2][]string // every delivery: when, who, from whom, what
}

func newTwins(seed int64) *twins {
	tw := &twins{}
	for i := range tw.m {
		tw.k[i] = sim.New(seed)
		tw.m[i] = NewMedium(tw.k[i], DefaultParams(), nil)
	}
	tw.m[1].SetBruteForce(true)
	return tw
}

// each applies one call to both media.
func (tw *twins) each(fn func(m *Medium)) {
	for _, m := range tw.m {
		fn(m)
	}
}

func (tw *twins) attach(id NodeID, pos Position) {
	for i, m := range tw.m {
		i, k := i, tw.k[i]
		m.Attach(id, pos, ReceiverFunc(func(f Frame) {
			tw.log[i] = append(tw.log[i], fmt.Sprintf("%v %d<-%d %x", k.Now(), id, f.From, f.Payload.Bytes()))
		}))
	}
}

// requireSame fails unless both media delivered the same frames in the
// same order, counted and charged the same, and left their kernels'
// generators in the same place.
func (tw *twins) requireSame(t *testing.T, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(tw.log[0], tw.log[1]) {
		t.Fatalf("%s: delivery logs differ:\n indexed %v\n brute   %v", ctx, tw.log[0], tw.log[1])
	}
	if a, b := counterPoints(tw.m[0].Registry()), counterPoints(tw.m[1].Registry()); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counters differ:\n indexed %v\n brute   %v", ctx, a, b)
	}
	for _, n := range tw.m[1].ordered {
		for _, st := range []metrics.RadioState{metrics.StateTx, metrics.StateRx} {
			if a, b := tw.m[0].Energy().Ledger(int(n.id)).Duration(st), tw.m[1].Energy().Ledger(int(n.id)).Duration(st); a != b {
				t.Fatalf("%s: node %d state %v indexed %v != brute %v", ctx, n.id, st, a, b)
			}
		}
	}
	if a, b := tw.k[0].Rand().Int63(), tw.k[1].Rand().Int63(); a != b {
		t.Fatalf("%s: the kernels' next random draw differs: %d != %d", ctx, a, b)
	}
}

// counterPoints returns the counter series of r, in Snapshot order.
func counterPoints(r *metrics.Registry) []metrics.Point {
	var out []metrics.Point
	for _, p := range r.Snapshot() {
		if p.Kind == metrics.KindCounter {
			out = append(out, p)
		}
	}
	return out
}

// audible reports whether from's signal carries to to at all (within
// RangeMax and not vetoed): the ID-keyed pairwise predicate, written
// apart from the medium's own audibleAt. Audibility is what matters for
// interference; successful decoding additionally passes the PRR draw.
func (m *Medium) audible(from, to NodeID) bool {
	if from == to {
		return false
	}
	if m.filter != nil && !m.filter(from, to) {
		return false
	}
	if prr, ok := m.prrOver[[2]NodeID{from, to}]; ok {
		return prr > 0
	}
	src, dst := m.mustNode(from), m.mustNode(to)
	return src.pos.Distance(dst.pos) < m.params.RangeMax
}

// audibleByPredicate is who a send from `from` on channel ch reaches
// according to the medium's pairwise predicates — the specification the
// fan-out loop is an optimization of: every attached node, in ID order,
// that is up, listening on ch and audible(from, it).
func audibleByPredicate(m *Medium, from NodeID, ch uint8) []NodeID {
	var out []NodeID
	for _, n := range m.ordered {
		if !n.down && n.listening && n.channel == ch && m.audible(from, n.id) {
			out = append(out, n.id)
		}
	}
	return out
}

// paritySequence draws a program of sends interleaved with everything
// that can change who hears them — attaches after sends, small steps
// and long jumps (of senders and of receivers), PRR overrides
// installed, zeroed and removed (also far beyond RangeMax), the link
// filter on and off, radios going down, deaf or to another channel,
// foreign senders whose announced position changes — and runs it on
// both twins. Frames overlap (the kernel advances by less than an
// airtime between most steps), so collisions are part of it.
func paritySequence(t *testing.T, seed int64, nodes int) {
	rng := rand.New(rand.NewSource(seed))
	tw := newTwins(seed)
	span := 40 + rng.Float64()*260
	spot := func() Position {
		return Position{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}
	}
	next := NodeID(0)
	attach := func() {
		tw.attach(next, spot())
		on := rng.Float64() < 0.85
		id := next
		tw.each(func(m *Medium) { m.SetListening(id, on) })
		next++
	}
	for i := 0; i < nodes; i++ {
		attach()
	}
	any := func() NodeID { return NodeID(rng.Intn(int(next))) }
	foreignAt := map[NodeID]Position{}
	payload := byte(0)
	for step := 0; step < 40+nodes; step++ {
		switch op := rng.Intn(20); {
		case op < 7: // a local send
			from, to, ch := any(), Broadcast, uint8(rng.Intn(2))
			if rng.Intn(2) == 0 {
				to = any()
			}
			payload++
			p := payload
			tw.each(func(m *Medium) {
				want := audibleByPredicate(m, from, ch)
				b := m.Buffers().Get()
				b.Append([]byte{p})
				air := m.Send(Frame{From: from, To: to, Channel: ch, Size: 10 + int(p%40), Payload: b})
				b.Release()
				if air == 0 {
					return // the sender is down
				}
				var got []NodeID
				for _, d := range m.active[len(m.active)-1].dels {
					got = append(got, NodeID(d.id))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (brute=%v): send from %d fanned out to %v, the predicates say %v", step, m.brute, from, got, want)
				}
			})
		case op < 9: // a send hosted elsewhere, from where it was or from a new spot
			from := NodeID(1000 + rng.Intn(3))
			pos, known := foreignAt[from]
			if !known || rng.Intn(2) == 0 {
				pos = spot()
				foreignAt[from] = pos
			}
			payload++
			p := payload
			for i, m := range tw.m {
				now := tw.k[i].Now()
				m.ApplyForeign(Announcement{From: from, To: Broadcast, Pos: pos, Size: 20, Start: now, End: now + m.Airtime(20), Payload: []byte{p}})
			}
		case op < 10:
			attach()
		case op < 12: // a small step
			id := any()
			at := tw.m[0].PositionOf(id)
			to := Position{X: at.X + rng.Float64()*6 - 3, Y: at.Y + rng.Float64()*6 - 3}
			tw.each(func(m *Medium) { m.SetPosition(id, to) })
		case op < 13: // a jump anywhere
			id, to := any(), spot()
			tw.each(func(m *Medium) { m.SetPosition(id, to) })
		case op < 15: // an override: installed, zeroed or removed; the pair may be far apart
			from, to := any(), any()
			if rng.Intn(4) == 0 {
				from = NodeID(1000 + rng.Intn(3))
			}
			prr := []float64{rng.Float64(), 1, 0, -1}[rng.Intn(4)]
			tw.each(func(m *Medium) { m.SetLinkPRR(from, to, prr) })
		case op < 16:
			var f LinkFilter
			if rng.Intn(2) == 0 {
				mod := NodeID(2 + rng.Intn(5))
				f = func(a, b NodeID) bool { return (a+b)%mod != 0 }
			}
			tw.each(func(m *Medium) { m.SetLinkFilter(f) })
		case op < 17:
			id, down := any(), rng.Intn(3) == 0
			tw.each(func(m *Medium) { m.SetDown(id, down) })
		case op < 18:
			id, on := any(), rng.Intn(3) > 0
			tw.each(func(m *Medium) { m.SetListening(id, on) })
		case op < 19:
			id, ch := any(), uint8(rng.Intn(2))
			tw.each(func(m *Medium) { m.SetChannel(id, ch) })
		default:
			id := any()
			if a, b := tw.m[0].NeighborsOf(id), tw.m[1].NeighborsOf(id); !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: NeighborsOf(%d) indexed %v != brute %v", step, id, a, b)
			}
		}
		d := time.Duration(rng.Intn(1200)) * time.Microsecond
		for _, k := range tw.k {
			k.RunFor(d)
		}
	}
	for _, k := range tw.k {
		k.Run()
	}
	tw.requireSame(t, fmt.Sprintf("seed %d, %d nodes", seed, nodes))
}

// TestIndexedAudibleParityProperty is the satellite property test: over
// drawn sequences of sends and layout, link and radio changes, a medium
// that keeps link lists hears exactly what the brute-force O(N) scan
// hears, in the same ID order — the order the loss draws are taken in.
func TestIndexedAudibleParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		paritySequence(t, rng.Int63(), 2+rng.Intn(80))
	}
}

// FuzzAudibleParity drives the same parity property from fuzzed inputs.
func FuzzAudibleParity(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(99), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		paritySequence(t, seed, 2+int(n)%96)
	})
}

// TestOverrideBeyondRange: a PRR override makes a link audible far past
// RangeMax; the override receiver must join the sender's link list and
// leave it when the override is removed, though neither node moved.
func TestOverrideBeyondRange(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 0, 0)
	c2 := attach(m, 2, 500, 0) // 500 m away: inaudible by distance
	m.SetLinkPRR(1, 2, 1.0)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("override link delivered %d frames, want 1", len(c2.frames))
	}
	if got := m.NeighborsOf(1); !reflect.DeepEqual(got, []NodeID{2}) {
		t.Fatalf("NeighborsOf(1) = %v while the override holds, want [2]", got)
	}
	m.SetLinkPRR(1, 2, -1)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("after override removal got %d frames, want still 1", len(c2.frames))
	}
	if got := m.NeighborsOf(1); len(got) != 0 {
		t.Fatalf("NeighborsOf(1) = %v after the override was removed, want none", got)
	}
}

// TestOverrideVoidsForeignList: an override from a sender another shard
// hosts voids the list kept under its ID, though it announces from the
// same spot every time.
func TestOverrideVoidsForeignList(t *testing.T) {
	k, m := newTestMedium(t)
	c2 := attach(m, 2, 500, 0)
	announce := func() {
		now := k.Now()
		m.ApplyForeign(Announcement{From: 77, To: Broadcast, Size: 20, Start: now, End: now + m.Airtime(20)})
		k.Run()
	}
	for _, c := range []struct {
		prr  float64
		want int
	}{{-1, 0}, {1, 1}, {-1, 1}} {
		m.SetLinkPRR(77, 2, c.prr)
		announce()
		if len(c2.frames) != c.want {
			t.Fatalf("after SetLinkPRR(77, 2, %v): node 2 has %d frames, want %d", c.prr, len(c2.frames), c.want)
		}
	}
}

// TestApplyForeignDeliversExactly: a ghost transmission announced from
// another shard delivers to local listeners at the original end-of-air
// instant, drawing loss from the local RNG.
func TestApplyForeignDeliversExactly(t *testing.T) {
	k, m := newTestMedium(t)
	var gotAt time.Duration = -1
	var gotPayload []byte
	m.Attach(5, Position{X: 10}, ReceiverFunc(func(f Frame) {
		gotAt = k.Now()
		gotPayload = append([]byte(nil), f.Payload.Bytes()...)
	}))
	m.SetListening(5, true)

	payload := []byte{0xAB, 0xCD}
	start := 2 * time.Millisecond
	end := start + m.Airtime(20)
	k.At(time.Millisecond, func() { // a barrier instant before end
		m.ApplyForeign(Announcement{
			From: 77, Pos: Position{X: 0}, Channel: 0, Size: 20,
			Start: start, End: end, Payload: payload,
		})
	})
	k.RunUntil(time.Second)
	if gotAt != end {
		t.Fatalf("foreign frame delivered at %v, want %v", gotAt, end)
	}
	if string(gotPayload) != string(payload) {
		t.Fatalf("payload %x, want %x", gotPayload, payload)
	}
}

// TestForeignFanOutMatchesLocal: a frame is heard the same whether its
// sender is hosted here (Send) or on another shard's medium
// (ApplyForeign of its announcement). Same seed, same receivers, same
// frame already in flight; every receiver-side outcome — who decodes
// it, who loses it to a collision (and what that does to the frame in
// flight), who loses it to the link, what each radio spent listening —
// must be equal, down to the trace events.
func TestForeignFanOutMatchesLocal(t *testing.T) {
	const sender, interferer = 50, 60
	origin := Position{}
	type outcome struct {
		heard                      map[NodeID][]string // per receiver: "from:payload" in arrival order
		rx                         map[NodeID]time.Duration
		collisions, rxFrames, loss float64
		events                     []trace.Event
	}
	run := func(foreign bool) outcome {
		k, m := newTestMedium(t)
		rec := trace.New(1024, k.Now)
		m.SetRecorder(rec)
		out := outcome{heard: map[NodeID][]string{}, rx: map[NodeID]time.Duration{}}
		receivers := map[NodeID]Position{
			1: {X: 5}, 7: {X: 10, Y: 10}, // reliable from the sender, out of the interferer's reach
			2: {X: 25}, 3: {X: 30, Y: 5}, // hear both senders
			4: {Y: 28}, 5: {X: -33}, 8: {X: -24, Y: 10}, 9: {Y: -31}, // the sender's gray region only
			6: {X: 60}, // the interferer only
		}
		for id, pos := range receivers {
			m.Attach(id, pos, ReceiverFunc(func(f Frame) {
				out.heard[id] = append(out.heard[id], string(rune('0'+f.From))+":"+string(f.Payload.Bytes()))
			}))
			m.SetListening(id, true)
		}
		m.Attach(interferer, Position{X: 40}, ReceiverFunc(func(Frame) {}))
		if !foreign {
			m.Attach(sender, origin, ReceiverFunc(func(Frame) {})) // radio off: it only sends
		}
		payload := func(s string) *Frame {
			b := m.Buffers().Get()
			b.Append([]byte(s))
			return &Frame{To: Broadcast, Size: b.Len(), Payload: b}
		}
		k.At(0, func() {
			f := payload("a long frame already in the air when the other one starts ..........")
			f.From = interferer
			m.Send(*f)
			f.Payload.Release()
		})
		k.At(time.Millisecond, func() {
			f := payload("reading")
			f.From = sender
			if foreign {
				a, _ := NewAnnouncement(*f, origin, k.Now(), k.Now()+m.Airtime(f.Size), nil)
				m.ApplyForeign(a)
			} else {
				m.Send(*f)
			}
			f.Payload.Release()
		})
		k.Run()
		for id := range receivers {
			out.rx[id] = m.Energy().Ledger(int(id)).Duration(metrics.StateRx)
		}
		reg := m.Registry()
		out.collisions = reg.Counter("radio.collisions").Value()
		out.rxFrames = reg.Counter("radio.rx_frames").Value()
		out.loss = reg.Counter("radio.dropped_loss").Value()
		for _, e := range rec.Events() {
			if e.Type == trace.RadioTx && e.Node == sender {
				continue // only the hosting medium sees the frame go out
			}
			out.events = append(out.events, e)
		}
		return out
	}
	local, foreign := run(false), run(true)
	if !reflect.DeepEqual(local, foreign) {
		t.Fatalf("receiver-side outcomes differ:\n local   %+v\n foreign %+v", local, foreign)
	}
	// The comparison has teeth only if the scene produced every outcome.
	decoded := 0
	for _, frames := range local.heard {
		for _, f := range frames {
			if f == string(rune('0'+sender))+":reading" {
				decoded++
			}
		}
	}
	if decoded < 2 || local.collisions < 4 || local.loss < 1 {
		t.Fatalf("scene too tame: %d decoded, %v collisions, %v link losses", decoded, local.collisions, local.loss)
	}
}

// TestAnnounceHookFires: Send reports every accepted transmission to the
// announce hook with the sender position and flight interval.
func TestAnnounceHookFires(t *testing.T) {
	k, m := newTestMedium(t)
	attach(m, 1, 3, 4)
	var got []Announcement
	m.SetAnnounce(func(f Frame, pos Position, start, end sim.Time) {
		a, _ := NewAnnouncement(f, pos, start, end, nil)
		got = append(got, a)
	})
	air := m.Send(Frame{From: 1, To: Broadcast, Size: 40})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("announce fired %d times, want 1", len(got))
	}
	a := got[0]
	if a.From != 1 || a.Pos.X != 3 || a.Pos.Y != 4 || a.End-a.Start != air {
		t.Fatalf("announcement %+v inconsistent with send (air %v)", a, air)
	}
}
