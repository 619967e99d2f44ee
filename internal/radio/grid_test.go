package radio

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// audibleOrder returns the receiver IDs a send from `from` on channel ch
// would consider audible, in fan-out visit order — the order that
// decides which receiver consumes which RNG draw. It walks the same
// candidate path Send does (spatial index, or the flat ordered scan
// under SetBruteForce) applying the same skip conditions.
func audibleOrder(m *Medium, from NodeID, ch uint8) []NodeID {
	src := m.mustNode(from)
	var out []NodeID
	m.forEachCandidate(src.pos, func(n *nodeState) {
		if n.id == from || n.down || !n.listening || n.channel != ch {
			return
		}
		if !m.audible(from, n.id) {
			return
		}
		out = append(out, n.id)
	})
	return out
}

// requireParity fails unless the indexed and brute-force fan-out paths
// agree on the audible set and its order for every attached sender.
func requireParity(t *testing.T, m *Medium, ch uint8, ctx string) {
	t.Helper()
	for _, from := range m.NodeIDs() {
		m.SetBruteForce(false)
		indexed := audibleOrder(m, from, ch)
		m.SetBruteForce(true)
		brute := audibleOrder(m, from, ch)
		m.SetBruteForce(false)
		if !reflect.DeepEqual(indexed, brute) {
			t.Fatalf("%s: from=%d indexed audible set %v != brute %v", ctx, from, indexed, brute)
		}
	}
}

// TestSetPositionRebuckets pins the index maintenance: crossing a cell
// boundary moves the node between cell buckets.
func TestSetPositionRebuckets(t *testing.T) {
	_, m := newTestMedium(t)
	attach(m, 1, 5, 5)
	oldKey := m.cellOf(Position{X: 5, Y: 5})
	if got := len(m.cells[oldKey]); got != 1 {
		t.Fatalf("node not bucketed at origin cell, len=%d", got)
	}
	far := Position{X: 5 + 3*m.cellSize, Y: 5}
	m.SetPosition(1, far)
	if got := len(m.cells[oldKey]); got != 0 {
		t.Fatalf("old cell still holds %d nodes after move", got)
	}
	if got := len(m.cells[m.cellOf(far)]); got != 1 {
		t.Fatalf("new cell holds %d nodes, want 1", got)
	}
}

// TestMobileRoamOracle roams an asset tag across many cell boundaries.
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

	// A diagonal walk in 9 m steps: cellSize is 35 m, so the tag crosses
	// a cell boundary roughly every fourth step and leaves the station
	// grid entirely near the end.
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

// scatterMedium builds a medium with randomized positions, channels,
// down/listening flags, PRR overrides (including far beyond RangeMax),
// and possibly a link filter, all driven by rng.
func scatterMedium(rng *rand.Rand, n int) *Medium {
	k := sim.New(rng.Int63())
	m := NewMedium(k, DefaultParams(), nil)
	span := 40 + rng.Float64()*400
	for i := 0; i < n; i++ {
		id := NodeID(i)
		m.Attach(id, Position{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}, ReceiverFunc(func(Frame) {}))
		m.SetListening(id, rng.Float64() < 0.8)
		if rng.Float64() < 0.1 {
			m.SetDown(id, true)
		}
		if rng.Float64() < 0.3 {
			m.SetChannel(id, uint8(rng.Intn(3)))
		}
	}
	for i := 0; i < n/3; i++ {
		from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		m.SetLinkPRR(from, to, rng.Float64()) // may create far-link audibility
		if rng.Float64() < 0.3 {
			m.SetLinkPRR(from, to, -1) // and exercise removal bookkeeping
		}
	}
	if rng.Float64() < 0.5 {
		mod := NodeID(2 + rng.Intn(5))
		m.SetLinkFilter(func(a, b NodeID) bool { return (a+b)%mod != 0 })
	}
	return m
}

// TestIndexedAudibleParityProperty is the satellite property test:
// under random positions, channels, down/listening flags, filters, and
// overrides, the indexed audible set equals the brute-force O(N) scan's
// set in the same ID order.
func TestIndexedAudibleParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := scatterMedium(rng, 2+rng.Intn(80))
		for ch := uint8(0); ch < 3; ch++ {
			requireParity(t, m, ch, "scatter")
		}
		// Shuffle some nodes around (re-bucketing) and re-check.
		ids := m.NodeIDs()
		for i := 0; i < 5; i++ {
			m.SetPosition(ids[rng.Intn(len(ids))], Position{X: rng.Float64()*500 - 250, Y: rng.Float64()*500 - 250})
		}
		requireParity(t, m, 0, "after moves")
	}
}

// FuzzAudibleParity drives the same parity property from fuzzed inputs.
func FuzzAudibleParity(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(99), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		nodes := 2 + int(n)%96
		rng := rand.New(rand.NewSource(seed))
		m := scatterMedium(rng, nodes)
		for _, from := range m.NodeIDs() {
			m.SetBruteForce(false)
			indexed := audibleOrder(m, from, 0)
			m.SetBruteForce(true)
			brute := audibleOrder(m, from, 0)
			if !reflect.DeepEqual(indexed, brute) {
				t.Fatalf("from=%d indexed %v != brute %v", from, indexed, brute)
			}
		}
	})
}

// TestOverrideBeyondRange: a PRR override makes a link audible far past
// RangeMax; the override receiver must join the candidate set (it is in
// no nearby cell) and leave it when the override is removed.
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
	m.SetLinkPRR(1, 2, -1)
	m.Send(Frame{From: 1, To: 2, Size: 20})
	k.Run()
	if len(c2.frames) != 1 {
		t.Fatalf("after override removal got %d frames, want still 1", len(c2.frames))
	}
	if len(m.overRecv) != 0 || len(m.overTo) != 0 {
		t.Fatalf("override bookkeeping leaked: overRecv=%d overTo=%d", len(m.overRecv), len(m.overTo))
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
