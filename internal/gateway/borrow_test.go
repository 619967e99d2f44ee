package gateway

import (
	"bytes"
	"fmt"
	"testing"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/sim"
)

// borrowTransport holds a Conn to the receive side of the borrow rule
// (coap.Transport.SetReceiver). It lends each inbound datagram in a
// private buffer; when borrow is set it overwrites that buffer after the
// callback returns and pushes a second, unrelated request through
// another Conn, which reuses the pooled request scratch without drawing
// a message ID from the first. Anything the Conn, the server, the
// gateway or a handler kept of the first request then reads garbage. It
// records a copy of every datagram the Conn sends.
type borrowTransport struct {
	recv   func(from string, data []byte)
	borrow bool
	noise  *sinkTransport
	sent   []string // "addr|hex"
}

func (t *borrowTransport) Send(addr string, data []byte) error {
	t.sent = append(t.sent, fmt.Sprintf("%s|%x", addr, data))
	return nil
}
func (t *borrowTransport) SetReceiver(fn func(from string, data []byte)) { t.recv = fn }
func (t *borrowTransport) LocalAddr() string                             { return "gw" }
func (t *borrowTransport) Close() error                                  { return nil }

func (t *borrowTransport) deliver(from string, data []byte) {
	buf := append([]byte(nil), data...)
	t.recv(from, buf)
	if !t.borrow {
		return
	}
	for i := range buf {
		buf[i] = 0xA5
	}
	t.noise.recv("noise", noiseRequest)
}

// noiseRequest is a NON PUT with a long token, many options and a payload
// longer than any request of the scenario, answered with a long payload
// and options, so it overwrites every part of the scratch the previous
// request used.
var noiseRequest = func() []byte {
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodePUT, MessageID: 0xBEEF,
		Token: bytes.Repeat([]byte{0xEE}, 8), Payload: bytes.Repeat([]byte{0x5A}, 300)}
	m.SetPath("noise/a/b/c/d/e/f/g")
	m.AddUintOption(coap.OptContentFormat, coap.FormatOctets)
	data, err := m.Marshal()
	if err != nil {
		panic(err)
	}
	return data
}()

// newNoiseConn returns the transport of a Conn that answers noiseRequest.
func newNoiseConn(t *testing.T) *sinkTransport {
	tr := &sinkTransport{}
	conn := coap.NewConn(tr, &clock.System{}, coap.ConnConfig{})
	t.Cleanup(func() { conn.Close() })
	srv := coap.NewServer()
	srv.Resource("noise/a/b/c/d/e/f/g").Put(func(string, *coap.Message) *coap.Message {
		m := &coap.Message{Code: coap.CodeChanged, Token: []byte{0xDD}, Payload: bytes.Repeat([]byte{0x3C}, 40)}
		for i := 0; i < 6; i++ {
			m.AddUintOption(coap.OptURIQuery+coap.OptionID(i), 0xA5A5A5A5)
		}
		return m
	})
	conn.Serve(srv)
	return tr
}

// borrowScenario drives a gateway through a cached GET with Observe, a
// CON duplicate, notifications, a deregistration, a PUT whose handler
// copies the payload (the shape of F1's vent and iiotgw's setpoint), a
// read of what it stored and a Block2 read of a cached representation.
// It returns every datagram the gateway sent and what its handlers kept.
func borrowScenario(t *testing.T, borrow bool) (sent []string, kept string) {
	k := sim.New(1)
	sched := clock.Kernel{K: k}
	tr := &borrowTransport{borrow: borrow, noise: newNoiseConn(t)}
	conn := coap.NewConn(tr, sched, coap.ConnConfig{})
	gw := New(conn, Config{Sched: sched, Inline: true})
	defer func() {
		gw.Close()
		conn.Close()
	}()
	gw.AddResource("plant/temp", "iiot.sensor", nil)
	gw.AddResource("plant/log", "iiot.log", nil)
	gw.Publish("plant/temp", coap.FormatText, []byte("21.5"))
	big := bytes.Repeat([]byte("0123456789abcdef"), 10) // 160 B: three 64-byte blocks
	gw.Publish("plant/log", coap.FormatOctets, big)

	var vent string
	var setpoint float64
	gw.Server().Resource("vent").
		Put(func(_ string, req *coap.Message) *coap.Message {
			vent = string(req.Payload)
			if _, err := fmt.Sscanf(string(req.Payload), "%f", &setpoint); err != nil {
				return coap.ErrorResponse(coap.CodeBadRequest, "want a number")
			}
			return &coap.Message{Code: coap.CodeChanged}
		}).
		Get(func(string, *coap.Message) *coap.Message { return coap.TextResponse(vent) })

	req := func(from string, typ coap.Type, code coap.Code, mid uint16, tok []byte, path string, obs int, block2 int, payload string) {
		m := &coap.Message{Type: typ, Code: code, MessageID: mid, Token: tok}
		m.SetPath(path)
		if obs >= 0 {
			m.AddUintOption(coap.OptObserve, uint32(obs))
		}
		if block2 >= 0 {
			m.AddUintOption(coap.OptBlock2, uint32(block2))
		}
		if payload != "" {
			m.Payload = []byte(payload)
		}
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		tr.deliver(from, data)
	}
	req("o1", coap.NonConfirmable, coap.CodeGET, 1, []byte{0xA1, 0xA2}, "plant/temp", 0, -1, "")
	req("o2", coap.Confirmable, coap.CodeGET, 2, []byte{0xB1, 0xB2, 0xB3}, "plant/temp", 0, -1, "")
	req("o2", coap.Confirmable, coap.CodeGET, 2, []byte{0xB1, 0xB2, 0xB3}, "plant/temp", 0, -1, "") // duplicate: replayed
	gw.Publish("plant/temp", coap.FormatText, []byte("22.0"))
	req("o1", coap.NonConfirmable, coap.CodeGET, 3, []byte{0xA1, 0xA2}, "plant/temp", 1, -1, "")
	gw.Publish("plant/temp", coap.FormatText, []byte("22.5"))
	req("c", coap.Confirmable, coap.CodePUT, 4, []byte{0xC1}, "vent", -1, -1, "41.25")
	req("c", coap.Confirmable, coap.CodeGET, 5, []byte{0xC2}, "vent", -1, -1, "")
	req("c", coap.Confirmable, coap.CodeGET, 6, []byte{0xC3}, "plant/log", -1, -1, "")
	for num := 1; num <= 3; num++ { // block 3 is past the end: 4.00
		req("c", coap.Confirmable, coap.CodeGET, uint16(6+num), []byte{0xC3}, "plant/log", -1, num<<4|2, "")
	}

	if n := gw.Server().Resource("plant/temp").ObserverCount(); n != 1 {
		t.Fatalf("%d observers after one deregistration, want 1", n)
	}
	if e, ok := gw.Cache().Get("plant/log"); !ok || !bytes.Equal(e.Payload, big) {
		t.Fatalf("cached representation changed by the Block2 reads: %q", e.Payload)
	}
	return tr.sent, fmt.Sprintf("vent=%q setpoint=%v", vent, setpoint)
}

// TestRequestBuffersAreBorrowed runs the scenario on fresh buffers and
// again with every inbound datagram overwritten, and the request scratch
// reused, after each callback: every answer, notification and replay,
// and what the handlers kept, must be byte-identical.
func TestRequestBuffersAreBorrowed(t *testing.T) {
	fresh, freshKept := borrowScenario(t, false)
	lent, lentKept := borrowScenario(t, true)
	if len(fresh) != 13 {
		t.Fatalf("fresh run sent %d datagrams, want 13:\n%s", len(fresh), fresh)
	}
	if freshKept != `vent="41.25" setpoint=41.25` {
		t.Fatalf("fresh run kept %s", freshKept)
	}
	if lentKept != freshKept {
		t.Fatalf("handlers kept %s on borrowed buffers, %s on fresh ones", lentKept, freshKept)
	}
	for i := range max(len(fresh), len(lent)) {
		var f, l string
		if i < len(fresh) {
			f = fresh[i]
		}
		if i < len(lent) {
			l = lent[i]
		}
		if f != l {
			t.Errorf("datagram %d: %s on borrowed buffers, %s on fresh ones", i, l, f)
		}
	}
}
