package coap

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/sim"
)

// rawClient is a hand-driven CoAP endpoint: it records every inbound
// message and sends crafted datagrams, giving observe tests full control
// over registration, RSTs, and deregistration on the wire.
type rawClient struct {
	tr   *gossip.Port
	addr string

	mu   sync.Mutex
	msgs []*Message
}

func newRawClient(w *world, addr string) *rawClient {
	c := &rawClient{tr: w.board.Attach(addr), addr: addr}
	c.tr.SetReceiver(func(from string, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		c.mu.Lock()
		c.msgs = append(c.msgs, m)
		c.mu.Unlock()
	})
	return c
}

func (c *rawClient) send(t *testing.T, dst string, m *Message) {
	t.Helper()
	data, err := m.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := c.tr.Send(dst, data); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func (c *rawClient) received() []*Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Message, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func registerMsg(token []byte, mid uint16, path string, observe uint32) *Message {
	m := &Message{Type: NonConfirmable, Code: CodeGET, MessageID: mid, Token: token}
	m.SetPath(path)
	m.AddUintOption(OptObserve, observe)
	return m
}

// TestObserveLifecycle walks one registration through its whole arc:
// register → notifications (NON, with every-8th confirmable) → RST-drop
// via removeObserverByMID → re-register with the same token → explicit
// deregistration with Observe=1.
func TestObserveLifecycle(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	srv := NewServer()
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("20.0")
	})
	srvConn.Serve(srv)

	cli := newRawClient(w, "cli")
	tok := []byte{0xAA, 0xBB}

	// Register.
	cli.send(t, "srv", registerMsg(tok, 1, "temp", 0))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 1 {
		t.Fatalf("observers = %d after register", temp.ObserverCount())
	}
	got := cli.received()
	if len(got) != 1 || !got[0].Code.IsSuccess() {
		t.Fatalf("registration response = %+v", got)
	}
	if _, has := got[0].Option(OptObserve); !has {
		t.Fatal("registration response missing Observe option")
	}

	// Notify through seq 8: seqs 2..8, so seq 8 must be confirmable and
	// the rest non-confirmable.
	for i := 0; i < 7; i++ {
		temp.Notify(FormatText, []byte(fmt.Sprintf("2%d.0", i)))
		w.k.RunFor(time.Second)
	}
	got = cli.received()
	if len(got) != 8 {
		t.Fatalf("received %d messages, want 8 (1 response + 7 notifications)", len(got))
	}
	var cons, nons int
	lastSeq := uint32(0)
	for _, m := range got[1:] {
		switch m.Type {
		case Confirmable:
			cons++
		case NonConfirmable:
			nons++
		default:
			t.Fatalf("unexpected notification type %v", m.Type)
		}
		o, has := m.Option(OptObserve)
		if !has {
			t.Fatal("notification missing Observe option")
		}
		if o.Uint() <= lastSeq {
			t.Fatalf("observe seq not increasing: %d after %d", o.Uint(), lastSeq)
		}
		lastSeq = o.Uint()
	}
	if cons != 1 || nons != 6 {
		t.Fatalf("cons=%d nons=%d, want 1 CON (seq 8) and 6 NONs", cons, nons)
	}

	// RST the last notification: the server must drop the registration
	// (removeObserverByMID).
	last := got[len(got)-1]
	cli.send(t, "srv", &Message{Type: Reset, Code: CodeEmpty, MessageID: last.MessageID})
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 0 {
		t.Fatalf("observers = %d after RST, want 0", temp.ObserverCount())
	}

	// Re-register with the same token.
	cli.send(t, "srv", registerMsg(tok, 2, "temp", 0))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 1 {
		t.Fatalf("observers = %d after re-register", temp.ObserverCount())
	}
	before := len(cli.received())
	temp.Notify(FormatText, []byte("30.0"))
	w.k.RunFor(time.Second)
	if len(cli.received()) != before+1 {
		t.Fatal("no notification after re-registration")
	}

	// Deregister (Observe=1).
	cli.send(t, "srv", registerMsg(tok, 3, "temp", 1))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 0 {
		t.Fatalf("observers = %d after deregister, want 0", temp.ObserverCount())
	}
	before = len(cli.received())
	temp.Notify(FormatText, []byte("31.0"))
	w.k.RunFor(time.Second)
	after := cli.received()
	for _, m := range after[before:] {
		if _, has := m.Option(OptObserve); has && m.Code == CodeContent && m.Type != Acknowledgement {
			t.Fatalf("notification after deregister: %+v", m)
		}
	}
}

// TestFailedGETDoesNotRegisterObserver pins RFC 7641 §4.1: a non-success
// response must not leave a registration behind. The old code registered
// before invoking the handler, so a 5.00 from the adapter decode path
// left a dangling observer that kept receiving notifications.
func TestFailedGETDoesNotRegisterObserver(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	srv := NewServer()
	fail := true
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		if fail {
			return ErrorResponse(CodeInternalServerError, "decode error")
		}
		return TextResponse("20.0")
	})
	srvConn.Serve(srv)

	cli := newRawClient(w, "cli")
	cli.send(t, "srv", registerMsg([]byte{1}, 1, "temp", 0))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 0 {
		t.Fatalf("observers = %d after failed GET, want 0", temp.ObserverCount())
	}
	got := cli.received()
	if len(got) != 1 || got[0].Code != CodeInternalServerError {
		t.Fatalf("response = %+v, want 5.00", got)
	}
	if _, has := got[0].Option(OptObserve); has {
		t.Fatal("error response must not carry an Observe option")
	}

	// The same GET succeeding afterwards must register normally.
	fail = false
	cli.send(t, "srv", registerMsg([]byte{1}, 2, "temp", 0))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 1 {
		t.Fatalf("observers = %d after successful GET, want 1", temp.ObserverCount())
	}
}

// TestObserverCapBoundary exercises admission control at a configurable
// cap: the table fills to exactly the limit, the next registration gets
// 5.03 with the configured Max-Age retry hint, and re-registering an
// existing observer never consumes a slot.
func TestObserverCapBoundary(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	srv := NewServer()
	srv.SetObserverLimit(4)
	srv.SetRejectMaxAge(30)
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("20.0")
	})
	srvConn.Serve(srv)

	clients := make([]*rawClient, 5)
	for i := range clients {
		clients[i] = newRawClient(w, fmt.Sprintf("cli%d", i))
	}
	for i := 0; i < 4; i++ {
		clients[i].send(t, "srv", registerMsg([]byte{byte(i)}, uint16(i+1), "temp", 0))
		w.k.RunFor(time.Second)
	}
	if temp.ObserverCount() != 4 {
		t.Fatalf("observers = %d, want 4", temp.ObserverCount())
	}

	// Boundary: the fifth distinct observer is rejected with 5.03+Max-Age.
	clients[4].send(t, "srv", registerMsg([]byte{4}, 5, "temp", 0))
	w.k.RunFor(time.Second)
	got := clients[4].received()
	if len(got) != 1 || got[0].Code != CodeServiceUnavailable {
		t.Fatalf("over-cap response = %+v, want 5.03", got)
	}
	if age, has := got[0].Option(OptMaxAge); !has || age.Uint() != 30 {
		t.Fatalf("over-cap response Max-Age = %v, want 30", got[0].Options)
	}
	if temp.ObserverCount() != 4 {
		t.Fatalf("observers = %d after reject, want 4", temp.ObserverCount())
	}

	// Re-registering observer 0 with its existing token is not a new slot.
	clients[0].send(t, "srv", registerMsg([]byte{0}, 6, "temp", 0))
	w.k.RunFor(time.Second)
	got = clients[0].received()
	if last := got[len(got)-1]; !last.Code.IsSuccess() {
		t.Fatalf("re-registration at cap rejected: %+v", last)
	}
	if temp.ObserverCount() != 4 {
		t.Fatalf("observers = %d after re-register, want 4", temp.ObserverCount())
	}

	// A freed slot is reusable.
	clients[1].send(t, "srv", registerMsg([]byte{1}, 7, "temp", 1))
	w.k.RunFor(time.Second)
	clients[4].send(t, "srv", registerMsg([]byte{4}, 8, "temp", 0))
	w.k.RunFor(time.Second)
	got = clients[4].received()
	if last := got[len(got)-1]; !last.Code.IsSuccess() {
		t.Fatalf("registration into freed slot rejected: %+v", last)
	}
	if temp.ObserverCount() != 4 {
		t.Fatalf("observers = %d, want 4", temp.ObserverCount())
	}
}

// sinkTransport discards (or counts) outbound datagrams; the inbound
// path is never used. It lets observe fan-out run without a peer.
type sinkTransport struct {
	sent atomic.Int64
}

func (s *sinkTransport) Send(addr string, data []byte) error {
	s.sent.Add(1)
	return nil
}
func (s *sinkTransport) SetReceiver(func(from string, data []byte)) {}
func (s *sinkTransport) LocalAddr() string                          { return "sink" }
func (s *sinkTransport) Close() error                               { return nil }

// scribbleTransport enforces the Transport.Send contract from the
// sender's side: the wrapped transport gets a private copy of each
// datagram, overwritten the moment its Send returns — as a sender
// reusing its buffer would — so anything downstream that kept the slice
// reads garbage.
type scribbleTransport struct{ Transport }

func (s scribbleTransport) Send(addr string, data []byte) error {
	tmp := append([]byte(nil), data...)
	err := s.Transport.Send(addr, tmp)
	for i := range tmp {
		tmp[i] = 0xA5
	}
	return err
}

// captureTransport keeps a copy of every outbound datagram.
type captureTransport struct {
	sinkTransport
	log []sentDatagram
}

type sentDatagram struct {
	addr string
	data []byte
}

func (c *captureTransport) Send(addr string, data []byte) error {
	c.log = append(c.log, sentDatagram{addr, append([]byte(nil), data...)})
	return nil
}

// TestNotifyInlineOrderTwoTokensOneAddress pins the inline fan-out order
// to (address, token): a client holding several registrations on one
// resource (legal under RFC 7641) must get its notifications — and so
// their message IDs — in the same order every round and every run,
// whatever the order of the shards' records. Every 8th round is
// confirmable, so both kinds of send are covered.
func TestNotifyInlineOrderTwoTokensOneAddress(t *testing.T) {
	const rounds, tokens = 50, 40 // 40 tokens at one address: one shard, one probe run
	type reg struct {
		addr  string
		token byte
	}
	want := []reg{{"a", 9}}
	for tok := 0; tok < tokens; tok++ {
		want = append(want, reg{"b", byte(tok)})
	}
	want = append(want, reg{"c", 0})
	run := func() []sentDatagram {
		tr := &captureTransport{}
		conn := NewConn(tr, clock.Kernel{K: sim.New(1)}, ConnConfig{Seed: 7})
		srv := NewServer()
		temp := srv.Resource("temp").Observable()
		conn.Serve(srv)
		for i := len(want) - 1; i >= 0; i-- { // registration order is not send order
			if err := temp.addObserver(want[i].addr, []byte{want[i].token}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rounds; i++ {
			temp.Notify(FormatText, []byte{byte('0' + i%10)})
		}
		return tr.log
	}
	first := run()
	if len(first) != rounds*len(want) {
		t.Fatalf("%d datagrams, want %d", len(first), rounds*len(want))
	}
	var prevMID uint16
	for i, sent := range first {
		m, err := Unmarshal(sent.data)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		w := want[i%len(want)]
		if sent.addr != w.addr || len(m.Token) != 1 || m.Token[0] != w.token {
			t.Fatalf("round %d: datagram %d went to %s token %x, want %s token %02x", i/len(want), i%len(want), sent.addr, m.Token, w.addr, w.token)
		}
		if i > 0 && m.MessageID != prevMID+1 {
			t.Fatalf("datagram %d: MID %d after %d, want one block in send order", i, m.MessageID, prevMID)
		}
		prevMID = m.MessageID
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatal("two identical runs sent different byte sequences")
	}
}

// TestLastMIDRaceNotifyVsRST is the -race regression for the last-MID
// data race: Notify once wrote an observer's last MID after dropping the
// resource lock while removeObserverByMID read it under the lock. The
// stamp is now taken under the shard lock, beside the read. Run with
// -race.
func TestLastMIDRaceNotifyVsRST(t *testing.T) {
	conn := NewConn(&sinkTransport{}, &clock.System{}, ConnConfig{})
	defer conn.Close()
	srv := NewServer()
	srv.SetObserverLimit(1024)
	srv.SetConfirmEvery(-1) // NON-only: no retransmit timers to leak
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("x")
	})
	conn.Serve(srv)
	for i := 0; i < 64; i++ {
		if err := temp.addObserver(fmt.Sprintf("c%d", i), []byte{byte(i), 1}); err != nil {
			t.Fatal(err)
		}
	}

	race := func(addr string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for mid := uint16(0); mid < 2000; mid++ {
				srv.removeObserverByMID(addr, mid)
			}
		}()
		for i := 0; i < 50; i++ {
			temp.Notify(FormatText, []byte("21.5"))
		}
		<-done
	}
	race("c3") // inline fan-out
	srv.StartNotifyPool(64)
	race("c5") // pooled: the shard workers stamp while the RSTs read
	srv.StopNotifyPool()
}

// TestStrayRSTZeroKeepsUnnotifiedObserver: an observer that has been
// sent no notification holds no MID, so an RST with MID 0, which it was
// never sent, must leave it registered. The registry once started every
// observer's last MID at 0.
func TestStrayRSTZeroKeepsUnnotifiedObserver(t *testing.T) {
	tr := &wireTransport{}
	conn := NewConn(tr, clock.Kernel{K: sim.New(1)}, ConnConfig{})
	srv := NewServer()
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("20.0")
	})
	conn.Serve(srv)
	reg, err := registerMsg([]byte{1}, 1, "temp", 0).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tr.recv("c1", reg)
	tr.recv("c1", []byte{0x70, 0x00, 0x00, 0x00}) // RST, MID 0
	if n := temp.ObserverCount(); n != 1 {
		t.Fatalf("observers = %d after a stray RST with MID 0, want 1", n)
	}
}

// TestNotifyEncoderMatchesMarshal pins the zero-alloc NON encoder to the
// generic Message.Marshal byte stream.
func TestNotifyEncoderMatchesMarshal(t *testing.T) {
	cases := []struct {
		seq, cf uint32
		payload []byte
		token   []byte
		mid     uint16
	}{
		{1, FormatText, []byte("20.5"), []byte{0xAA}, 7},
		{0, FormatText, nil, nil, 0},
		{300, FormatJSON, []byte(`{"v":1}`), []byte{1, 2, 3, 4, 5, 6, 7, 8}, 65535},
		{1 << 20, FormatOctets, bytes.Repeat([]byte{0xFF}, 64), []byte{0}, 256},
	}
	var enc notifyEncoder
	for _, c := range cases {
		m := &Message{Type: NonConfirmable, Code: CodeContent, MessageID: c.mid, Token: c.token, Payload: c.payload}
		m.AddUintOption(OptObserve, c.seq)
		m.AddUintOption(OptContentFormat, c.cf)
		want, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		enc.prepare(c.seq, c.cf, c.payload)
		got := enc.packet(c.mid, c.token)
		if !bytes.Equal(got, want) {
			t.Errorf("seq=%d cf=%d: encoder\n got %x\nwant %x", c.seq, c.cf, got, want)
		}
	}
}

// TestNotifyNONHotPathZeroAllocs is the CI alloc gate on the NON-notify
// hot path: per-shard fan-out with the reused encoder and scratch slice
// must not allocate per observer (or per shard) at steady state.
func TestNotifyNONHotPathZeroAllocs(t *testing.T) {
	conn := NewConn(&sinkTransport{}, &clock.System{}, ConnConfig{})
	defer conn.Close()
	srv := NewServer()
	srv.SetObserverLimit(1 << 20)
	srv.SetConfirmEvery(-1)
	temp := srv.Resource("temp").Observable()
	conn.Serve(srv)
	for i := 0; i < 512; i++ {
		if err := temp.addObserver(fmt.Sprintf("client-%05d", i), []byte{byte(i >> 8), byte(i), 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	var enc notifyEncoder
	var scratch []obsRec
	payload := []byte("21.53")
	allocs := testing.AllocsPerRun(100, func() {
		seq := temp.obsSeq.Add(1)
		for si := 0; si < obsShards; si++ {
			scratch = temp.notifyShard(si, seq, FormatText, payload, &enc, scratch)
		}
	})
	if allocs != 0 {
		t.Fatalf("NON-notify hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestObserverHeldBytes gates what the registry holds per observer:
// 200 000 registrations over 16 resources may grow the live heap by at
// most 52 B each. The address strings are allocated before the baseline,
// but the registry keeps its own copy of every address in its shard's
// arena, so the gate counts the address bytes it owns: 13-14 here. An
// observer is a 16-byte record, its address, and its index slots (46.4 B
// on linux/amd64; 63 B plus the caller's address string as a map slot,
// 111 B while each slot pointed at a separate heap object). Run without
// -race.
func TestObserverHeldBytes(t *testing.T) {
	const n, resources = 200_000, 16
	srv := NewServer()
	srv.SetObserverLimit(n)
	res := make([]*Resource, resources)
	for i := range res {
		res[i] = srv.Resource(fmt.Sprintf("plant/%d", i)).Observable()
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.%d.%d.%d:5683", i>>16, i>>8&0xFF, i&0xFF)
	}
	token := []byte{0xC0, 0xAB, 0x01, 0x02}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, a := range addrs {
		if err := res[i%resources].addObserver(a, token); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of live heap per observer (%d observers over %d resources)", per, n, resources)
	if per > 52 {
		t.Fatalf("registry holds %.1f B per observer, want <= 52", per)
	}
	runtime.KeepAlive(addrs)
	runtime.KeepAlive(srv)
}

// TestNotifyPoolDelivers checks the parallel fan-out path end to end:
// all observers receive the notification and the pool drains cleanly.
func TestNotifyPoolDelivers(t *testing.T) {
	sink := &sinkTransport{}
	conn := NewConn(sink, &clock.System{}, ConnConfig{})
	defer conn.Close()
	srv := NewServer()
	srv.SetObserverLimit(1 << 20)
	srv.SetConfirmEvery(-1)
	temp := srv.Resource("temp").Observable()
	conn.Serve(srv)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := temp.addObserver(fmt.Sprintf("c%d", i), []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.StartNotifyPool(64)
	defer srv.StopNotifyPool()
	temp.Notify(FormatText, []byte("22.0"))
	deadline := time.Now().Add(10 * time.Second)
	for sink.sent.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d notifications", sink.sent.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if d := srv.NotifyDropped(); d != 0 {
		t.Fatalf("dropped = %d with an idle queue", d)
	}
	if temp.ObserverCount() != n {
		t.Fatalf("observers = %d after notify, want %d", temp.ObserverCount(), n)
	}
}

// blockingTransport parks every Send until released, so queue
// backpressure is reachable deterministically.
type blockingTransport struct {
	release chan struct{}
}

func (b *blockingTransport) Send(addr string, data []byte) error {
	<-b.release
	return nil
}
func (b *blockingTransport) SetReceiver(func(from string, data []byte)) {}
func (b *blockingTransport) LocalAddr() string                          { return "blocked" }
func (b *blockingTransport) Close() error                               { return nil }

// TestNotifyPoolBackpressure fills a length-1 shard queue behind a
// blocked transport and checks that excess pushes are counted as drops
// instead of blocking the publisher.
func TestNotifyPoolBackpressure(t *testing.T) {
	bt := &blockingTransport{release: make(chan struct{})}
	conn := NewConn(bt, &clock.System{}, ConnConfig{})
	srv := NewServer()
	srv.SetConfirmEvery(-1)
	temp := srv.Resource("temp").Observable()
	conn.Serve(srv)
	// One observer: exactly one shard is active, so per-notify dispatch
	// is one queue push.
	if err := temp.addObserver("c0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	srv.StartNotifyPool(1)
	// First notify occupies the worker (blocked in Send), second fills
	// the queue, the rest must be dropped.
	for i := 0; i < 10; i++ {
		temp.Notify(FormatText, []byte("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.NotifyDropped() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want >= 8", srv.NotifyDropped())
		}
		time.Sleep(time.Millisecond)
	}
	close(bt.release)
	srv.StopNotifyPool()
	_ = conn.Close()
}

// TestDedupCONOnlyAndQueueExpiry pins the dedup-state rework: NON
// requests leave no dedup entries, CON entries expire from the head of
// the arrival-ordered log (amortized O(1)) exactly as the old full scan
// did, and an expired entry's MID can be reused.
func TestDedupCONOnlyAndQueueExpiry(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{ExchangeLifetime: 10 * time.Second})
	calls := 0
	srv := NewServer()
	srv.Resource("count").Get(func(string, *Message) *Message {
		calls++
		return TextResponse(fmt.Sprint(calls))
	})
	srvConn.Serve(srv)
	cli := newRawClient(w, "cli")

	// NON requests must not retain dedup state.
	for mid := uint16(1); mid <= 5; mid++ {
		m := &Message{Type: NonConfirmable, Code: CodeGET, MessageID: mid, Token: []byte{byte(mid)}}
		m.SetPath("count")
		cli.send(t, "srv", m)
	}
	w.k.RunFor(time.Second)
	if nd, _, _ := srvConn.DedupStats(); nd != 0 {
		t.Fatalf("dedup entries after NON requests = %d, want 0", nd)
	}

	// A duplicate CON replays the cached response without re-invoking
	// the handler.
	con := &Message{Type: Confirmable, Code: CodeGET, MessageID: 100, Token: []byte{0xC0}}
	con.SetPath("count")
	callsBefore := calls
	cli.send(t, "srv", con)
	w.k.RunFor(time.Second)
	cli.send(t, "srv", con)
	w.k.RunFor(time.Second)
	if calls != callsBefore+1 {
		t.Fatalf("handler calls = %d, want %d (duplicate CON deduped)", calls, callsBefore+1)
	}

	// After ExchangeLifetime the entry expires (released from the log's
	// head on the next request) and the same MID is served fresh.
	w.k.RunFor(time.Minute)
	cli.send(t, "srv", con)
	w.k.RunFor(time.Second)
	if calls != callsBefore+2 {
		t.Fatalf("handler calls = %d, want %d (entry expired)", calls, callsBefore+2)
	}
	srvConn.mu.Lock()
	live := srvConn.dedup.live
	qlen := int(srvConn.dedup.next - srvConn.dedup.first)
	srvConn.mu.Unlock()
	if live != 1 || qlen > 2 {
		t.Fatalf("dedup entries=%d records=%d, want the expired entry gone", live, qlen)
	}
}

// midTransport records the MID of every outbound datagram; its receiver
// is driven by the test.
type midTransport struct {
	recv func(from string, data []byte)
	mu   sync.Mutex
	mids map[uint16]int
}

func (m *midTransport) Send(addr string, data []byte) error {
	m.mu.Lock()
	m.mids[uint16(data[2])<<8|uint16(data[3])]++
	m.mu.Unlock()
	return nil
}
func (m *midTransport) SetReceiver(fn func(from string, data []byte)) { m.recv = fn }
func (m *midTransport) LocalAddr() string                             { return "srv" }
func (m *midTransport) Close() error                                  { return nil }

// TestConcurrentNONRegistrations drives the lock-free NON request path
// from several goroutines while resources are being added: every
// registration lands, and the responses' MIDs are one consecutive run of
// the counter allocMIDs draws from — none lost, none handed out twice.
func TestConcurrentNONRegistrations(t *testing.T) {
	const workers, each, seed = 4, 500, 40
	tr := &midTransport{mids: map[uint16]int{}}
	conn := NewConn(tr, &clock.System{}, ConnConfig{Seed: seed})
	defer conn.Close()
	srv := NewServer()
	srv.SetObserverLimit(workers * each)
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message { return TextResponse("x") })
	conn.Serve(srv)
	reg, err := registerMsg([]byte{7}, 1, "temp", 0).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.recv(fmt.Sprintf("c%d-%d", w, i), reg)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			srv.Resource(fmt.Sprintf("extra/%d", i))
			_ = srv.Paths()
		}
	}()
	wg.Wait()
	if n := temp.ObserverCount(); n != workers*each {
		t.Fatalf("observers = %d, want %d", n, workers*each)
	}
	for i := 1; i <= workers*each; i++ {
		if c := tr.mids[uint16(seed+i)]; c != 1 {
			t.Fatalf("MID %d used %d times, want once", seed+i, c)
		}
	}
	if len(tr.mids) != workers*each {
		t.Fatalf("%d distinct response MIDs, want %d", len(tr.mids), workers*each)
	}
}
