package mac

// Conformance suite: every discipline behind the MAC interface shares one
// observable contract — idempotent Start/Stop, immediate done(false) when
// not started, failed queued sends on Stop, a restart that leaves no
// timer of the old run behind, FIFO delivery, duplicate suppression
// under ACK loss, an ACK match that names the neighbor, reboot state
// reset, channel retuning, and an honest address-recognition claim. Each test body runs once per discipline,
// and all four disciplines are in the table: the contract is what the
// shared chassis (chassis.go) promises, so it is checked on everything
// that embeds it.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"iiotds/internal/metrics"
	"iiotds/internal/netbuf"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
)

// conformanceCase adapts one discipline to the shared suite. settle gives
// duty-cycled MACs time to establish wake/beacon schedules before the
// first send; window bounds how long one delivery may take.
type conformanceCase struct {
	name   string
	mk     func(m *radio.Medium, id radio.NodeID) MAC
	settle time.Duration
	window time.Duration
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{
			name: "csma",
			mk: func(m *radio.Medium, id radio.NodeID) MAC {
				return NewCSMA(m, id, CSMAConfig{Config: Config{MaxRetries: 10}})
			},
			settle: 100 * time.Millisecond,
			window: time.Second,
		},
		{
			name: "lpl",
			mk: func(m *radio.Medium, id radio.NodeID) MAC {
				return NewLPL(m, id, LPLConfig{WakeInterval: 200 * time.Millisecond, Config: Config{MaxRetries: 10}})
			},
			settle: time.Second,
			window: 3 * time.Second,
		},
		{
			name: "rimac",
			mk: func(m *radio.Medium, id radio.NodeID) MAC {
				return NewRIMAC(m, id, RIMACConfig{BeaconInterval: 200 * time.Millisecond, Config: Config{MaxRetries: 10}})
			},
			settle: time.Second,
			window: 3 * time.Second,
		},
		{
			// Two-slot epoch: node 1 owns slot 0 and listens in slot 1,
			// node 2 is the mirror image.
			name: "tdma",
			mk: func(m *radio.Medium, id radio.NodeID) MAC {
				tx := int(id+1) % 2
				return NewTDMA(m, id, TDMAConfig{
					SlotsPerEpoch: 2, TxSlot: tx, RxSlots: []int{1 - tx},
					Config: Config{MaxRetries: 10},
				})
			},
			settle: 100 * time.Millisecond,
			window: time.Second,
		},
	}
}

// forEachMAC runs fn once per discipline as a subtest.
func forEachMAC(t *testing.T, fn func(t *testing.T, c conformanceCase)) {
	t.Helper()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) { fn(t, c) })
	}
}

// sendAfterSettle schedules one unicast a→b after the case's settle time
// and runs the kernel through the delivery window.
func sendAfterSettle(k *sim.Kernel, c conformanceCase, a MAC, payload []byte, done DoneFunc) {
	k.Schedule(c.settle, func() { a.Send(2, payload, done) })
	k.RunFor(c.settle + c.window)
}

func TestConformanceUnicastDelivery(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		var got []byte
		var from radio.NodeID
		b.OnReceive(func(f radio.NodeID, p []byte) { from, got = f, p })
		ok := false
		sendAfterSettle(k, c, a, []byte("conform"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("unicast not acknowledged")
		}
		if from != 1 || string(got) != "conform" {
			t.Fatalf("got %q from node %d", got, from)
		}
		if a.QueueLen() != 0 {
			t.Fatalf("queue not drained after delivery: %d", a.QueueLen())
		}
	})
}

func TestConformanceStartIdempotent(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk) // buildPair already started both
		a.Start()
		b.Start()
		a.Start()
		ok := false
		b.OnReceive(func(radio.NodeID, []byte) {})
		sendAfterSettle(k, c, a, []byte("x"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("delivery broken by redundant Start")
		}
	})
}

func TestConformanceStopIdempotentAndSendFails(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		_, _, a, _ := buildPair(c.mk)
		a.Stop()
		a.Stop() // second Stop must be a no-op, not a panic
		called, result := false, true
		a.Send(2, []byte("x"), func(ok bool) { called, result = true, ok })
		if !called || result {
			t.Fatal("send after stop must call done(false) immediately")
		}
		if a.QueueLen() != 0 {
			t.Fatal("stopped MAC queued a send")
		}
	})
}

func TestConformanceSendBeforeStartFails(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k := sim.New(5)
		m := radio.NewMedium(k, radio.DefaultParams(), nil)
		var mc MAC
		m.Attach(1, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { mc.(radio.Receiver).RadioReceive(f) }))
		mc = c.mk(m, 1)
		called, result := false, true
		mc.Send(2, []byte("x"), func(ok bool) { called, result = true, ok })
		if !called || result {
			t.Fatal("send before start must call done(false) immediately")
		}
	})
}

func TestConformanceStopFailsQueuedSends(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		_, _, a, _ := buildPair(c.mk)
		failed := 0
		for i := 0; i < 3; i++ {
			a.Send(2, []byte{byte(i)}, func(ok bool) {
				if !ok {
					failed++
				}
			})
		}
		a.Stop() // kernel never ran: all three are still queued or in flight
		if failed != 3 {
			t.Fatalf("%d/3 queued sends failed on Stop", failed)
		}
		if a.QueueLen() != 0 {
			t.Fatalf("queue not cleared on Stop: %d", a.QueueLen())
		}
	})
}

func TestConformanceRestartDelivers(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		a.Stop()
		b.Stop()
		a.Start()
		b.Start()
		ok := false
		sendAfterSettle(k, c, a, []byte("again"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("stop/start cycle broke delivery")
		}
	})
}

// restartRun drives one pair through the case's settle time and then
// sends "new" from node 1 to `to`. With restart set, the sender first
// puts "old" in flight and is stopped and started again at that same
// instant — the tightest restart there is, inside every discipline's
// first backoff, strobe gap or rendezvous. The kernel RNG is re-seeded
// just before the new send so both variants draw the same backoffs and
// turnarounds from there on. frames counts transmissions on the medium
// between the new send and its completion.
type restartResult struct {
	oldDone, newDone []bool
	got              []string
	frames           float64
}

func restartRun(c conformanceCase, to radio.NodeID, restart bool) restartResult {
	k, m, a, b := buildPair(c.mk)
	var r restartResult
	b.OnReceive(func(_ radio.NodeID, p []byte) { r.got = append(r.got, string(p)) })
	tx := m.Registry().Counter("radio.tx_frames")
	k.Schedule(c.settle, func() {
		if restart {
			a.Send(2, []byte("old"), func(ok bool) { r.oldDone = append(r.oldDone, ok) })
			a.Stop()
			a.Start()
		}
		k.Rand().Seed(99)
		before := tx.Value()
		a.Send(to, []byte("new"), func(ok bool) {
			r.newDone = append(r.newDone, ok)
			r.frames = tx.Value() - before
		})
	})
	k.RunFor(c.settle + c.window)
	return r
}

// TestConformanceRestartWithSendInFlight pins that Stop disarms every
// timer the discipline scheduled: a send in flight when the MAC stops
// fails exactly once, and a send after the restart behaves — payload
// delivered once, done(true), same number of frames on the air — as if
// the MAC had never been restarted. A timer that survives Stop runs a
// second transmit chain over the new item (LPL strobed it twice over,
// interleaved, and the peer decoded neither).
func TestConformanceRestartWithSendInFlight(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		for _, to := range []radio.NodeID{2, radio.Broadcast} {
			want := restartRun(c, to, false)
			got := restartRun(c, to, true)
			if len(want.newDone) != 1 || !want.newDone[0] || len(want.got) != 1 {
				t.Fatalf("to=%d: reference pair broken: %+v", to, want)
			}
			if len(got.oldDone) != 1 || got.oldDone[0] {
				t.Fatalf("to=%d: in-flight send completed %v on Stop, want [false]", to, got.oldDone)
			}
			if len(got.newDone) != 1 || !got.newDone[0] {
				t.Fatalf("to=%d: send after restart completed %v, want [true]", to, got.newDone)
			}
			if len(got.got) != 1 || got.got[0] != "new" {
				t.Fatalf("to=%d: peer received %q after restart, want [new]", to, got.got)
			}
			if got.frames != want.frames {
				t.Fatalf("to=%d: %v frames after restart, %v on a never-restarted pair", to, got.frames, want.frames)
			}
		}
	})
}

// TestConformanceAckFromWrongNeighborIgnored pins the ACK match: an ACK
// completes the in-flight unicast only if it comes from the neighbor
// the data went to. Node 2 is a bare radio that never ACKs (it beacons,
// so a receiver-initiated sender transmits at all); node 3 answers every
// data frame 1→2 with an ACK carrying the awaited sequence number, from
// `forger`. Forged as node 2 the ACK is accepted — the control that the
// forgery reaches the sender — and from node 3 it is not.
func TestConformanceAckFromWrongNeighborIgnored(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		for _, forger := range []radio.NodeID{2, 3} {
			k := sim.New(7)
			m := radio.NewMedium(k, radio.DefaultParams(), nil)
			var a MAC
			m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { a.(radio.Receiver).RadioReceive(f) }))
			m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(radio.Frame) {}))
			m.Attach(3, radio.Position{X: 5}, radio.ReceiverFunc(func(f radio.Frame) {
				kind, seq, _, err := decode(f.Payload.Bytes())
				if err != nil || kind != KindData || f.From != 1 || f.To != 2 {
					return
				}
				ack := m.Buffers().Get()
				frame(ack, KindAck, seq)
				m.Send(radio.Frame{From: forger, To: 1, Size: ack.Len(), Payload: ack})
				ack.Release()
			}))
			m.SetListening(3, true)
			a = c.mk(m, 1)
			a.Start()
			k.Every(50*time.Millisecond, 0, func() {
				bcn := m.Buffers().Get()
				frame(bcn, KindBeacon, 0)
				m.Send(radio.Frame{From: 2, To: radio.Broadcast, Size: bcn.Len(), Payload: bcn})
				bcn.Release()
			})
			done, result := false, false
			k.Schedule(c.settle, func() { a.Send(2, []byte("x"), func(ok bool) { done, result = true, ok }) })
			k.RunFor(c.settle + 15*c.window)
			if !done {
				t.Fatalf("forger=%d: send never resolved", forger)
			}
			if want := forger == 2; result != want {
				t.Fatalf("forger=%d: send completed %v, want %v", forger, result, want)
			}
		}
	})
}

func TestConformanceFIFOOrder(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		var order []byte
		b.OnReceive(func(_ radio.NodeID, p []byte) { order = append(order, p[0]) })
		k.Schedule(c.settle, func() {
			for i := byte(0); i < 5; i++ {
				a.Send(2, []byte{i}, nil)
			}
		})
		k.RunFor(c.settle + 5*c.window)
		if len(order) != 5 {
			t.Fatalf("delivered %d/5 on a clean link", len(order))
		}
		for i := byte(0); i < 5; i++ {
			if order[i] != i {
				t.Fatalf("out-of-order delivery: %v", order)
			}
		}
	})
}

// TestConformanceDuplicateSuppression makes the reverse link lossy so
// ACKs (and RI-MAC beacons) drop and senders retransmit; the receiver's
// handler must still see each payload at most once.
func TestConformanceDuplicateSuppression(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, m, a, b := buildPair(c.mk)
		m.SetLinkPRR(2, 1, 0.5)
		counts := make(map[byte]int)
		b.OnReceive(func(_ radio.NodeID, p []byte) { counts[p[0]]++ })
		k.Schedule(c.settle, func() {
			for i := byte(0); i < 10; i++ {
				i := i
				k.Schedule(time.Duration(i)*c.window, func() { a.Send(2, []byte{i}, nil) })
			}
		})
		k.RunFor(c.settle + 12*c.window)
		delivered := 0
		for p, n := range counts {
			if n > 1 {
				t.Fatalf("payload %d delivered %d times (duplicates not suppressed)", p, n)
			}
			delivered++
		}
		if delivered < 5 {
			t.Fatalf("only %d/10 payloads delivered over 50%%-lossy reverse link with retries", delivered)
		}
	})
}

// TestConformanceBufferContract pins the receive-side buffer contract:
// the payload a handler sees is a view that dies when the handler
// returns. A handler that copies (netbuf.CloneBytes) keeps correct
// bytes; one that retains the raw view reads poison after pool reuse —
// never another packet's bytes — and dedup/retransmission still behave.
func TestConformanceBufferContract(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, m, a, b := buildPair(c.mk)
		m.Buffers().SetPoison(true)
		m.SetLinkPRR(2, 1, 0.5) // lossy ACK path: sender retransmits from its retained buffer
		var retained, copied []byte
		deliveries := 0
		b.OnReceive(func(_ radio.NodeID, p []byte) {
			deliveries++
			retained = p // contract violation on purpose
			copied = netbuf.CloneBytes(p)
		})
		ok := false
		sendAfterSettle(k, c, a, []byte("retain-me"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("unicast not acknowledged over lossy reverse link with retries")
		}
		if deliveries != 1 {
			t.Fatalf("handler fired %d times, want 1 (dedup under retransmission)", deliveries)
		}
		if string(copied) != "retain-me" {
			t.Fatalf("CloneBytes copy corrupted: %q", copied)
		}
		// The illegally retained view was scribbled when its buffer went
		// back to the pool — it must not silently keep the old bytes
		// (and must never show another packet's).
		if string(retained) == "retain-me" {
			t.Fatal("retained view survived pool reuse un-poisoned; use-after-release would hide")
		}
	})
}

// TestConformanceRebootSeqCollision pins the bug the recovery path must
// avoid: a node that sends exactly one frame, reboots (fresh sequence
// numbers), and sends again reuses its first sequence number. The peer's
// retained dedup entry matches, so the frame is ACKed (the sender sees
// success) but never delivered — a silent drop. This test documents the
// mechanism; the next one proves ForgetNeighbor is the cure.
func TestConformanceRebootSeqCollision(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		deliveries := 0
		b.OnReceive(func(radio.NodeID, []byte) { deliveries++ })
		ok := false
		sendAfterSettle(k, c, a, []byte("pre-crash"), func(r bool) { ok = r })
		if !ok || deliveries != 1 {
			t.Fatalf("pre-crash unicast: ok=%v deliveries=%d", ok, deliveries)
		}
		a.Stop()
		a.Reboot() // fresh seq numbering — first send reuses the pre-crash seq
		a.Start()
		ok = false
		sendAfterSettle(k, c, a, []byte("post-reboot"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("post-reboot unicast not acknowledged")
		}
		if deliveries != 1 {
			t.Fatalf("deliveries = %d: peer did not suppress the colliding seq — "+
				"if dedup semantics changed, revisit ForgetNeighbor and Deployment.Recover", deliveries)
		}
	})
}

// TestConformanceRebootForgetNeighborDelivers is the regression test for
// the recovery fix: when the peer forgets the rebooted neighbor (as
// Deployment.Recover now does), the first post-reboot unicast is
// delivered, not deduped.
func TestConformanceRebootForgetNeighborDelivers(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		var got []string
		b.OnReceive(func(_ radio.NodeID, p []byte) { got = append(got, string(p)) })
		ok := false
		sendAfterSettle(k, c, a, []byte("pre-crash"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("pre-crash unicast not acknowledged")
		}
		a.Stop()
		a.Reboot()
		b.ForgetNeighbor(1)
		a.Start()
		ok = false
		sendAfterSettle(k, c, a, []byte("post-reboot"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("post-reboot unicast not acknowledged")
		}
		if len(got) != 2 || got[1] != "post-reboot" {
			t.Fatalf("deliveries = %v, want the post-reboot frame delivered", got)
		}
	})
}

func TestConformanceRetune(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k, _, a, b := buildPair(c.mk)
		a.Retune(7)
		b.Retune(7)
		ok := false
		sendAfterSettle(k, c, a, []byte("ch7"), func(r bool) { ok = r })
		if !ok {
			t.Fatal("delivery broken after both nodes retuned together")
		}
		// Split the pair across channels: the send must fail, not hang.
		a.Retune(3)
		done, result := false, true
		k.Schedule(c.settle, func() { a.Send(2, []byte("lost"), func(r bool) { done, result = true, r }) })
		k.RunFor(c.settle + 10*c.window)
		if !done {
			t.Fatal("cross-channel send never resolved")
		}
		if result {
			t.Fatal("cross-channel send reported success")
		}
	})
}

// chassisOf reaches the shared half of a discipline.
func chassisOf(a MAC) *chassis {
	switch v := a.(type) {
	case *CSMA:
		return &v.chassis
	case *LPL:
		return &v.chassis
	case *RIMAC:
		return &v.chassis
	case *TDMA:
		return &v.chassis
	}
	panic("unknown discipline")
}

// TestConformanceAddressRecognition holds a discipline to what it tells
// the medium. One that declares address recognition (the medium then
// stops handing it unicasts meant for others) must be deaf to them in
// fact: an overheard data frame, ACK or beacon — from the very neighbor
// and with the very sequence number it is waiting on — reaches no
// handler, sends nothing, schedules and cancels nothing and leaves every
// field as it was, at every point of a send that is never answered. LPL
// must not declare it: an overheard strobe re-arms its sleep timer.
func TestConformanceAddressRecognition(t *testing.T) {
	forEachMAC(t, func(t *testing.T, c conformanceCase) {
		k := sim.New(7)
		m := radio.NewMedium(k, radio.DefaultParams(), nil)
		var a MAC
		m.Attach(1, radio.Position{X: 0}, radio.ReceiverFunc(func(f radio.Frame) { a.(radio.Receiver).RadioReceive(f) }))
		m.Attach(2, radio.Position{X: 10}, radio.ReceiverFunc(func(radio.Frame) {})) // a bare radio: never answers
		a = c.mk(m, 1)
		handled := 0
		a.OnReceive(func(radio.NodeID, []byte) { handled++ })
		a.Start()
		ch := chassisOf(a)
		overhear := func(kind Kind) {
			b := m.Buffers().Get()
			if kind == KindData {
				b.Append([]byte("for someone else"))
			}
			frame(b, kind, ch.seq)
			a.(radio.Receiver).RadioReceive(radio.Frame{From: 2, To: 99, Size: b.Len(), Payload: b})
			b.Release()
		}
		type state struct {
			fields  string
			stats   sim.Stats
			pending int
			sent    float64
			handled int
		}
		snapshot := func() state {
			return state{
				fields:  fmt.Sprintf("%+v %v", reflect.ValueOf(a).Elem().Interface(), ch.dedup.last),
				stats:   k.Stats(),
				pending: k.Pending(),
				sent:    m.Registry().Counter("radio.tx_frames").Value(),
				handled: handled,
			}
		}
		k.Schedule(c.settle, func() { a.Send(2, []byte("x"), nil) })
		k.RunFor(c.settle)

		if !m.AddressRecognition(1) {
			if c.name != "lpl" {
				t.Fatal("does not declare address recognition")
			}
			before := snapshot()
			overhear(KindData)
			if after := snapshot(); after.stats.Scheduled == before.stats.Scheduled {
				t.Fatal("an overheard strobe did not re-arm the sleep timer: LPL could declare address recognition after all")
			}
			return
		}
		if c.name == "lpl" {
			t.Fatal("LPL declares address recognition, but an overheard strobe reschedules its sleep")
		}
		midSend := 0
		for k.Now() < c.settle+c.window && k.Step() {
			if ch.q.len() > 0 {
				midSend++
			}
			for _, kind := range []Kind{KindData, KindAck, KindBeacon} {
				before := snapshot()
				overhear(kind)
				if after := snapshot(); after != before {
					t.Fatalf("at %v an overheard kind-%d unicast changed the MAC:\n before %+v\n after  %+v", k.Now(), kind, before, after)
				}
			}
		}
		if midSend == 0 {
			t.Fatal("never overheard anything in the middle of a send")
		}
	})
}

// TestAddressRecognitionChangesNothing runs one contended CSMA fleet on
// two media: one honours the discipline's address-recognition claim,
// the other hands every overheard unicast over as before. Everything
// observable must agree — deliveries, every counter, every ledger, the
// kernel's event counts and its generator — and the first must have
// made fewer calls.
func TestAddressRecognitionChangesNothing(t *testing.T) {
	type outcome struct {
		log     []string
		points  []metrics.Point
		radioOn []time.Duration
		stats   sim.Stats
		next    int64
	}
	const n = 12
	run := func(honour bool) (outcome, int) {
		k := sim.New(3)
		m := radio.NewMedium(k, radio.DefaultParams(), nil)
		macs := make([]*CSMA, n)
		var out outcome
		calls := 0
		for i := range macs {
			i, id := i, radio.NodeID(i)
			m.Attach(id, radio.Position{X: float64(i%4) * 12, Y: float64(i/4) * 12}, radio.ReceiverFunc(func(f radio.Frame) {
				calls++
				macs[i].RadioReceive(f)
			}))
			macs[i] = NewCSMA(m, id, CSMAConfig{})
			macs[i].OnReceive(func(from radio.NodeID, p []byte) {
				out.log = append(out.log, fmt.Sprintf("%v %d<-%d %s", k.Now(), id, from, p))
				if id > 0 { // relay toward node 0
					macs[i].Send(id-1, p, nil)
				}
			})
			macs[i].Start()
			if !honour {
				m.SetAddressRecognition(id, false)
			}
			if i > 0 {
				k.Every(300*time.Millisecond, 100*time.Millisecond, func() {
					macs[i].Send(id-1, []byte{byte('a' + i)}, nil)
				})
			}
		}
		k.RunFor(10 * time.Second)
		out.points = m.Registry().Snapshot()
		for i := range macs {
			out.radioOn = append(out.radioOn, m.Energy().Ledger(i).RadioOn())
		}
		out.stats, out.next = k.Stats(), k.Rand().Int63()
		return out, calls
	}
	honoured, fewer := run(true)
	ignored, all := run(false)
	if !reflect.DeepEqual(honoured, ignored) {
		t.Fatalf("outcomes differ:\n honoured %+v\n ignored  %+v", honoured, ignored)
	}
	if len(honoured.log) == 0 || fewer >= all {
		t.Fatalf("%d deliveries; %d receive calls with recognition honoured, %d without: nothing was overheard", len(honoured.log), fewer, all)
	}
}
