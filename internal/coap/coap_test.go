package coap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/sim"
)

// --- codec tests ---

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Type:      Confirmable,
		Code:      CodeGET,
		MessageID: 4242,
		Token:     []byte{1, 2, 3, 4},
		Payload:   []byte("hello"),
	}
	m.SetPath("sensors/temp/1")
	m.AddUintOption(OptContentFormat, FormatJSON)
	m.AddUintOption(OptObserve, 0)
	m.AddOption(OptURIQuery, []byte("unit=c"))
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Code != m.Code || got.MessageID != m.MessageID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Token, m.Token) || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("token/payload mismatch")
	}
	if got.Path() != "sensors/temp/1" {
		t.Fatalf("path = %q", got.Path())
	}
	if cf, ok := got.Option(OptContentFormat); !ok || cf.Uint() != FormatJSON {
		t.Fatal("content format lost")
	}
	if q := got.Queries(); len(q) != 1 || q[0] != "unit=c" {
		t.Fatalf("queries = %v", q)
	}
}

func TestLargeOptionDeltasAndLengths(t *testing.T) {
	m := &Message{Type: NonConfirmable, Code: CodeContent, MessageID: 1}
	// Delta 1 (IfMatch), then a jump to a large custom option number
	// (forces 14-nibble extended delta), plus a long value (extended len).
	m.AddOption(OptIfMatch, []byte{9})
	m.AddOption(OptionID(2000), bytes.Repeat([]byte{0xAB}, 300))
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 2 {
		t.Fatalf("options = %d", len(got.Options))
	}
	o, ok := got.Option(OptionID(2000))
	if !ok || len(o.Value) != 300 || o.Value[0] != 0xAB {
		t.Fatal("extended option mangled")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short":           {0x40, 0x01},
		"bad version":     {0x80, 0x01, 0, 1},
		"token too long":  {0x49, 0x01, 0, 1},
		"truncated token": {0x44, 0x01, 0, 1, 0xAA},
		"marker no data":  {0x40, 0x01, 0, 1, 0xFF},
		"reserved nibble": {0x40, 0x01, 0, 1, 0xF0},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestMarshalTokenTooLong(t *testing.T) {
	m := &Message{Token: make([]byte, 9)}
	if _, err := m.Marshal(); err != ErrBadToken {
		t.Fatalf("err = %v", err)
	}
}

func TestCodeString(t *testing.T) {
	if got := CodeContent.String(); got != "2.05" {
		t.Fatalf("CodeContent = %q", got)
	}
	if got := CodeNotFound.String(); got != "4.04" {
		t.Fatalf("CodeNotFound = %q", got)
	}
	if !CodeGET.IsRequest() || CodeGET.IsResponse() {
		t.Fatal("GET classification wrong")
	}
	if !CodeContent.IsSuccess() || CodeNotFound.IsSuccess() {
		t.Fatal("success classification wrong")
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		Confirmable: "CON", NonConfirmable: "NON",
		Acknowledgement: "ACK", Reset: "RST",
	} {
		if typ.String() != want {
			t.Errorf("%d = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, code uint8, mid uint16, token []byte, payload []byte, path string) bool {
		if len(token) > 8 {
			token = token[:8]
		}
		m := &Message{
			Type: Type(typ % 4), Code: Code(code), MessageID: mid,
			Token: token, Payload: payload,
		}
		m.SetPath(path)
		data, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if got.Type != m.Type || got.Code != m.Code || got.MessageID != m.MessageID {
			return false
		}
		if len(token) > 0 && !bytes.Equal(got.Token, token) {
			return false
		}
		if len(payload) > 0 && !bytes.Equal(got.Payload, payload) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceMarshal is Marshal as it was before the stack-sorted encoder:
// copy the options, sort.SliceStable them, extension bytes from slices.
func referenceMarshal(m *Message) []byte {
	buf := []byte{version<<6 | uint8(m.Type)<<4 | uint8(len(m.Token)), uint8(m.Code), byte(m.MessageID >> 8), byte(m.MessageID)}
	buf = append(buf, m.Token...)
	opts := make([]Option, len(m.Options))
	copy(opts, m.Options)
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].ID < opts[j].ID })
	ext := func(v int) (uint8, []byte) {
		switch {
		case v < 13:
			return uint8(v), nil
		case v < 269:
			return 13, []byte{uint8(v - 13)}
		default:
			return 14, []byte{byte((v - 269) >> 8), byte(v - 269)}
		}
	}
	prev := OptionID(0)
	for _, o := range opts {
		db, dext := ext(int(o.ID - prev))
		lb, lext := ext(len(o.Value))
		prev = o.ID
		buf = append(buf, db<<4|lb)
		buf = append(buf, dext...)
		buf = append(buf, lext...)
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(append(buf, 0xFF), m.Payload...)
	}
	return buf
}

// TestMarshalMatchesReference draws messages whose options come in any
// order — repeated IDs, more than the eight the stack sort holds, deltas
// and lengths needing extension bytes — and pins Marshal's bytes to the
// reference encoder's.
func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ids := []OptionID{OptIfMatch, OptObserve, OptURIPath, OptContentFormat, OptMaxAge, OptURIQuery, OptBlock2, 300, 2000}
	for i := 0; i < 2000; i++ {
		m := &Message{Type: Type(rng.Intn(4)), Code: Code(rng.Intn(256)), MessageID: uint16(rng.Intn(1 << 16)),
			Token: make([]byte, rng.Intn(9)), Payload: make([]byte, rng.Intn(3)*rng.Intn(40))}
		rng.Read(m.Token)
		rng.Read(m.Payload)
		for n := rng.Intn(13); n > 0; n-- {
			v := make([]byte, []int{0, 1, 4, 12, 13, 268, 269, 300}[rng.Intn(8)])
			rng.Read(v)
			m.AddOption(ids[rng.Intn(len(ids))], v)
		}
		before := append([]Option(nil), m.Options...)
		got, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceMarshal(m); !bytes.Equal(got, want) {
			t.Fatalf("message %d (%d options): Marshal\n got %x\nwant %x", i, len(m.Options), got, want)
		}
		if !reflect.DeepEqual(m.Options, before) {
			t.Fatalf("message %d: Marshal reordered the caller's options", i)
		}
	}
}

func TestSetPathEdgeCases(t *testing.T) {
	m := &Message{}
	m.SetPath("//a//b/")
	if got := m.Path(); got != "a/b" {
		t.Fatalf("path = %q, want a/b", got)
	}
	m.SetPath("")
	if got := m.Path(); got != "" {
		t.Fatalf("empty path = %q", got)
	}
}

// --- endpoint tests (deterministic: virtual time + loop transport) ---

type world struct {
	k     *sim.Kernel
	board *gossip.Network
}

func newWorld() *world {
	return &world{k: sim.New(1), board: gossip.NewNetwork()}
}

func (w *world) endpoint(addr string, cfg ConnConfig) (*Conn, *gossip.Port) {
	tr := w.board.Attach(addr)
	return NewConn(tr, clock.Kernel{K: w.k}, cfg), tr
}

func newServerConn(w *world, addr string) (*Conn, *Server) {
	conn, _ := w.endpoint(addr, ConnConfig{})
	srv := NewServer()
	srv.Resource("sensors/temp").ResourceType("iiot.temp").Get(func(from string, req *Message) *Message {
		return TextResponse("21.5")
	})
	srv.Resource("actuators/valve").Put(func(from string, req *Message) *Message {
		return &Message{Code: CodeChanged}
	})
	conn.Serve(srv)
	return conn, srv
}

func TestGetRequestResponse(t *testing.T) {
	w := newWorld()
	newServerConn(w, "srv")
	cli, _ := w.endpoint("cli", ConnConfig{})
	var resp *Message
	cli.Get("srv", "sensors/temp", func(m *Message, err error) {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
			return
		}
		resp = m
	})
	w.k.RunFor(time.Second)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Code != CodeContent || string(resp.Payload) != "21.5" {
		t.Fatalf("resp = %v %q", resp.Code, resp.Payload)
	}
}

func TestPutChangesAndNotFound(t *testing.T) {
	w := newWorld()
	newServerConn(w, "srv")
	cli, _ := w.endpoint("cli", ConnConfig{})
	var codes []Code
	cli.Put("srv", "actuators/valve", FormatText, []byte("open"), func(m *Message, err error) {
		codes = append(codes, m.Code)
	})
	cli.Get("srv", "no/such/path", func(m *Message, err error) {
		codes = append(codes, m.Code)
	})
	cli.Post("srv", "sensors/temp", FormatText, nil, func(m *Message, err error) {
		codes = append(codes, m.Code) // POST not allowed on temp
	})
	w.k.RunFor(time.Second)
	if len(codes) != 3 || codes[0] != CodeChanged || codes[1] != CodeNotFound || codes[2] != CodeMethodNotAllowed {
		t.Fatalf("codes = %v", codes)
	}
}

func TestConRetransmissionRecoversFromLoss(t *testing.T) {
	w := newWorld()
	newServerConn(w, "srv")
	cli, tr := w.endpoint("cli", ConnConfig{AckTimeout: time.Second})
	tr.SetDropFirst(2) // first two transmissions vanish
	var resp *Message
	cli.Get("srv", "sensors/temp", func(m *Message, err error) { resp = m })
	w.k.RunFor(30 * time.Second)
	if resp == nil || string(resp.Payload) != "21.5" {
		t.Fatal("retransmission did not recover the exchange")
	}
	if tr.Sent() < 3 {
		t.Fatalf("sent %d datagrams, want ≥3", tr.Sent())
	}
}

func TestConGivesUpAfterMaxRetransmit(t *testing.T) {
	w := newWorld()
	cli, tr := w.endpoint("cli", ConnConfig{AckTimeout: time.Second, MaxRetransmit: 3})
	tr.SetDropEvery(1) // everything is lost
	var gotErr error
	cli.Get("nowhere", "x", func(m *Message, err error) { gotErr = err })
	w.k.RunFor(5 * time.Minute)
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if tr.Sent() != 4 { // initial + 3 retransmits
		t.Fatalf("sent %d, want 4", tr.Sent())
	}
}

// TestResetFailsInFlightAndStaysUsable pins the reboot semantics of
// Conn.Reset (used by Deployment.Crash): in-flight exchanges fail with
// ErrClosed, no pending/awaiting entries survive, and — unlike Close —
// the endpoint keeps working afterwards.
func TestResetFailsInFlightAndStaysUsable(t *testing.T) {
	w := newWorld()
	newServerConn(w, "srv")
	cli, _ := w.endpoint("cli", ConnConfig{AckTimeout: 10 * time.Second})
	var errs []error
	cli.Get("ghost-a", "x", func(m *Message, err error) { errs = append(errs, err) })
	cli.Get("ghost-b", "x", func(m *Message, err error) { errs = append(errs, err) })
	w.k.RunFor(time.Second)
	if p, a := cli.Exchanges(); p != 2 || a != 2 {
		t.Fatalf("pending=%d awaiting=%d before Reset, want 2/2", p, a)
	}
	cli.Reset()
	if len(errs) != 2 || errs[0] != ErrClosed || errs[1] != ErrClosed {
		t.Fatalf("errs = %v, want two ErrClosed", errs)
	}
	if p, a := cli.Exchanges(); p != 0 || a != 0 {
		t.Fatalf("exchange state leaked across Reset: pending=%d awaiting=%d", p, a)
	}
	// Canceled retransmission timers must not fire later.
	w.k.RunFor(5 * time.Minute)
	if len(errs) != 2 {
		t.Fatalf("stale timer fired after Reset: errs = %v", errs)
	}
	// The endpoint survives the reboot: a fresh request round-trips.
	var resp *Message
	cli.Get("srv", "sensors/temp", func(m *Message, err error) { resp = m })
	w.k.RunFor(time.Minute)
	if resp == nil || string(resp.Payload) != "21.5" {
		t.Fatal("endpoint unusable after Reset")
	}
}

// TestResetFailureOrder pins the order Reset fails outstanding requests
// in: the byte order of "addr|hex(token)". With prefix-related mesh
// addresses that is not (address, token) order — "12|…" sorts before
// "1|…" — and crash scenarios replay it.
func TestResetFailureOrder(t *testing.T) {
	w := newWorld()
	cli, _ := w.endpoint("cli", ConnConfig{})
	var want, got []string
	tokens := [][]byte{{}, {0x07}, {1, 2, 3, 4, 5, 6, 7, 8}}
	for _, addr := range []string{"2", "12", "1"} {
		for _, tok := range tokens {
			label := fmt.Sprintf("%s|%x", addr, tok)
			want = append(want, label)
			m := &Message{Type: Confirmable, Code: CodeGET, Token: tok}
			m.SetPath("x")
			cli.Request(addr, m, func(_ *Message, err error) {
				if err != ErrClosed {
					t.Errorf("%s: err = %v, want ErrClosed", label, err)
				}
				got = append(got, label)
			})
		}
	}
	cli.Reset()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reset failed requests in order\n%q\nwant\n%q", got, want)
	}
}

// TestRequestRejectsLongToken: a token past RFC 7252's 8 bytes fails the
// request once, at the call, before any exchange state exists — and
// leaves alone the exchange whose token it extends.
func TestRequestRejectsLongToken(t *testing.T) {
	w := newWorld()
	cli, tr := w.endpoint("cli", ConnConfig{})
	tok := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var first error
	m := &Message{Type: NonConfirmable, Code: CodeGET, Token: tok}
	m.SetPath("x")
	cli.Request("srv", m, func(_ *Message, err error) { first = err })
	var errs []error
	long := &Message{Type: NonConfirmable, Code: CodeGET, Token: append(tok, 9)}
	long.SetPath("x")
	cli.Request("srv", long, func(_ *Message, err error) { errs = append(errs, err) })
	if len(errs) != 1 || errs[0] != ErrBadToken {
		t.Fatalf("callbacks = %v, want one ErrBadToken", errs)
	}
	if p, a := cli.Exchanges(); p != 0 || a != 1 {
		t.Fatalf("pending=%d awaiting=%d, want 0/1 (only the valid request)", p, a)
	}
	w.k.RunFor(time.Minute)
	if len(errs) != 1 || first != ErrTimeout || tr.Sent() != 1 {
		t.Fatalf("after the NON timeout: callbacks %v, valid request %v, sent %d; want one ErrBadToken, ErrTimeout, 1", errs, first, tr.Sent())
	}
}

func TestServerDedupRepliesFromCache(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	calls := 0
	srv := NewServer()
	srv.Resource("count").Get(func(from string, req *Message) *Message {
		calls++
		return TextResponse(fmt.Sprint(calls))
	})
	srvConn.Serve(srv)

	cli, _ := w.endpoint("cli", ConnConfig{AckTimeout: time.Second})
	// Drop the server's first response so the client retransmits the
	// same MID; the handler must run once and the cached response must
	// be replayed.
	srvTr := srvConn.tr.(*gossip.Port)
	srvTr.SetDropFirst(1)
	var resp *Message
	cli.Get("srv", "count", func(m *Message, err error) { resp = m })
	w.k.RunFor(time.Minute)
	if resp == nil {
		t.Fatal("no response")
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (dedup)", calls)
	}
	if string(resp.Payload) != "1" {
		t.Fatalf("payload = %q", resp.Payload)
	}
}

func TestNonRequestTimeout(t *testing.T) {
	w := newWorld()
	cli, _ := w.endpoint("cli", ConnConfig{NonTimeout: 5 * time.Second})
	var gotErr error
	m := &Message{Type: NonConfirmable, Code: CodeGET}
	m.SetPath("x")
	cli.Request("ghost", m, func(resp *Message, err error) { gotErr = err })
	w.k.RunFor(time.Minute)
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestObserveNotifications(t *testing.T) {
	w := newWorld()
	// The server's notifications leave in the encoder's reused buffer:
	// nothing past Send may keep them.
	srvConn := NewConn(scribbleTransport{w.board.Attach("srv")}, clock.Kernel{K: w.k}, ConnConfig{})
	srv := NewServer()
	temp := srv.Resource("temp").Observable().Get(func(from string, req *Message) *Message {
		return TextResponse("20.0")
	})
	srvConn.Serve(srv)

	cli, _ := w.endpoint("cli", ConnConfig{})
	var payloads []string
	var seqs []uint32
	tok := cli.Observe("srv", "temp", func(m *Message, err error) {
		if err != nil {
			return
		}
		payloads = append(payloads, string(m.Payload))
		if o, ok := m.Option(OptObserve); ok {
			seqs = append(seqs, o.Uint())
		}
	})
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 1 {
		t.Fatalf("observers = %d", temp.ObserverCount())
	}
	temp.Notify(FormatText, []byte("20.5"))
	w.k.RunFor(time.Second)
	temp.Notify(FormatText, []byte("21.0"))
	w.k.RunFor(time.Second)
	want := []string{"20.0", "20.5", "21.0"}
	if len(payloads) != 3 {
		t.Fatalf("payloads = %v", payloads)
	}
	for i := range want {
		if payloads[i] != want[i] {
			t.Fatalf("payloads = %v", payloads)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("observe seq not increasing: %v", seqs)
		}
	}
	// Cancel: no further notifications.
	cli.CancelObserve("srv", tok, "temp")
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 0 {
		t.Fatal("observer not removed after cancel")
	}
	temp.Notify(FormatText, []byte("99"))
	w.k.RunFor(time.Second)
	if len(payloads) != 3 {
		t.Fatalf("notification after cancel: %v", payloads)
	}
}

func TestObserverDroppedOnRST(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	srv := NewServer()
	temp := srv.Resource("temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("x")
	})
	srvConn.Serve(srv)
	cli, _ := w.endpoint("cli", ConnConfig{})
	cli.Observe("srv", "temp", func(m *Message, err error) {})
	w.k.RunFor(time.Second)
	// Client dies; a fresh endpoint at the same address RSTs unknown
	// notifications, and the server must clean up.
	_ = cli.Close()
	cli2, _ := w.endpoint("cli2", ConnConfig{})
	_ = cli2
	// Replace the address: simulate by re-attaching "cli".
	fresh := NewConn(w.board.Attach("cli"), clock.Kernel{K: w.k}, ConnConfig{})
	_ = fresh
	temp.Notify(FormatText, []byte("y"))
	w.k.RunFor(time.Second)
	if temp.ObserverCount() != 0 {
		t.Fatalf("observer count = %d after RST, want 0", temp.ObserverCount())
	}
}

func TestBlockwiseTransfer(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{BlockSize: 64})
	big := strings.Repeat("0123456789abcdef", 40) // 640 bytes
	srv := NewServer()
	srv.Resource("fw").Get(func(string, *Message) *Message {
		return TextResponse(big)
	})
	srvConn.Serve(srv)
	cli, _ := w.endpoint("cli", ConnConfig{BlockSize: 64})
	var resp *Message
	cli.Get("srv", "fw", func(m *Message, err error) {
		if err != nil {
			t.Errorf("blockwise error: %v", err)
			return
		}
		resp = m
	})
	w.k.RunFor(time.Minute)
	if resp == nil {
		t.Fatal("no reassembled response")
	}
	if string(resp.Payload) != big {
		t.Fatalf("reassembled %d bytes, want %d", len(resp.Payload), len(big))
	}
}

func TestBlockwiseOutOfRange(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{BlockSize: 64})
	srv := NewServer()
	srv.Resource("fw").Get(func(string, *Message) *Message { return TextResponse("small") })
	srvConn.Serve(srv)
	cli, _ := w.endpoint("cli", ConnConfig{})
	m := &Message{Type: Confirmable, Code: CodeGET}
	m.SetPath("fw")
	m.AddUintOption(OptBlock2, 99<<4) // block 99 of a 5-byte payload
	var code Code
	cli.Request("srv", m, func(resp *Message, err error) {
		if err == nil {
			code = resp.Code
		}
	})
	w.k.RunFor(time.Minute)
	if code != CodeBadRequest {
		t.Fatalf("code = %v, want 4.00", code)
	}
}

func TestWellKnownCore(t *testing.T) {
	w := newWorld()
	srvConn, _ := w.endpoint("srv", ConnConfig{})
	srv := NewServer()
	srv.Resource("sensors/temp").ResourceType("iiot.temp").Observable().Get(func(string, *Message) *Message {
		return TextResponse("1")
	})
	srv.Resource("actuators/valve").Put(func(string, *Message) *Message {
		return &Message{Code: CodeChanged}
	})
	srvConn.Serve(srv)
	cli, _ := w.endpoint("cli", ConnConfig{})
	var body string
	cli.Get("srv", ".well-known/core", func(m *Message, err error) {
		if err == nil {
			body = string(m.Payload)
		}
	})
	w.k.RunFor(time.Second)
	if !strings.Contains(body, "</sensors/temp>") || !strings.Contains(body, `rt="iiot.temp"`) ||
		!strings.Contains(body, ";obs") || !strings.Contains(body, "</actuators/valve>") {
		t.Fatalf("link format = %q", body)
	}
}

func TestCloseFailsOutstanding(t *testing.T) {
	w := newWorld()
	cli, _ := w.endpoint("cli", ConnConfig{})
	var gotErr error
	cli.Get("void", "x", func(m *Message, err error) { gotErr = err })
	_ = cli.Close()
	if gotErr != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", gotErr)
	}
	// Requests after close fail immediately.
	var after error
	cli.Get("void", "x", func(m *Message, err error) { after = err })
	if after != ErrClosed {
		t.Fatalf("after-close err = %v", after)
	}
}

// TestCloseFailureOrder: Close fails outstanding requests in Reset's
// order, the byte order of "addr|hex(token)", so two runs fail them
// alike. Close once failed them in map order.
func TestCloseFailureOrder(t *testing.T) {
	run := func(teardown func(*Conn)) []string {
		w := newWorld()
		cli, _ := w.endpoint("cli", ConnConfig{})
		var got []string
		for _, addr := range []string{"2", "12", "1"} {
			for tok := 7; tok >= 0; tok-- {
				label := fmt.Sprintf("%s|%x", addr, bytes.Repeat([]byte{byte(tok)}, tok))
				m := &Message{Type: Confirmable, Code: CodeGET, Token: bytes.Repeat([]byte{byte(tok)}, tok)}
				m.SetPath("x")
				cli.Request(addr, m, func(_ *Message, err error) {
					if err != ErrClosed {
						t.Errorf("%s: err = %v, want ErrClosed", label, err)
					}
					got = append(got, label)
				})
			}
		}
		teardown(cli)
		return got
	}
	closed := run(func(c *Conn) { _ = c.Close() })
	if len(closed) != 24 || !sort.StringsAreSorted(closed) {
		t.Fatalf("Close failed %d requests in order\n%q\nwant 24 in byte order", len(closed), closed)
	}
	if again, reset := run(func(c *Conn) { _ = c.Close() }), run((*Conn).Reset); !reflect.DeepEqual(again, closed) || !reflect.DeepEqual(reset, closed) {
		t.Fatalf("Close failed requests in order\n%q\nthen\n%q\nand Reset in\n%q", closed, again, reset)
	}
}

func TestUDPTransportEndToEnd(t *testing.T) {
	srvTr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	srvConn := NewConn(srvTr, &clock.System{}, ConnConfig{})
	defer srvConn.Close()
	srv := NewServer()
	srv.Resource("ping").Get(func(string, *Message) *Message { return TextResponse("pong") })
	srvConn.Serve(srv)

	cliTr, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewConn(cliTr, &clock.System{}, ConnConfig{})
	defer cli.Close()

	done := make(chan string, 1)
	cli.Get(srvTr.LocalAddr(), "ping", func(m *Message, err error) {
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- string(m.Payload)
	})
	select {
	case got := <-done:
		if got != "pong" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("UDP round trip timed out")
	}
}
