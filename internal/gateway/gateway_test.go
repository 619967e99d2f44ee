package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/gossip"
	"iiotds/internal/metrics"
	"iiotds/internal/sim"
)

// virtualWorld is a gateway on an in-memory network driven by a virtual
// kernel, plus a raw client endpoint for hand-built datagrams.
type virtualWorld struct {
	k      *sim.Kernel
	board  *gossip.Network
	gw     *Gateway
	client *coap.Conn
}

func newVirtualWorld(t *testing.T, cfg Config) *virtualWorld {
	t.Helper()
	k := sim.New(1)
	sched := clock.Kernel{K: k}
	cfg.Sched = sched
	cfg.Inline = true // pool workers are wall-clock goroutines; this world is virtual
	board := gossip.NewNetwork()
	conn := coap.NewConn(board.Attach("gw"), sched, coap.ConnConfig{})
	gw := New(conn, cfg)
	client := coap.NewConn(board.Attach("client"), sched, coap.ConnConfig{Seed: 7})
	client.Serve(coap.NewServer()) // answer notifications (ACK CONs)
	t.Cleanup(func() {
		gw.Close()
		conn.Close()
		client.Close()
	})
	return &virtualWorld{k: k, board: board, gw: gw, client: client}
}

func TestCoalescerLeadingAndTrailingEdge(t *testing.T) {
	k := sim.New(1)
	sched := clock.Kernel{K: k}
	var pushes []string
	co := NewCoalescer(sched, 100*time.Millisecond, func(cf uint32, p []byte) {
		pushes = append(pushes, string(p))
	})
	var coalesced []string
	offer := func(p string) {
		if co.Offer(0, []byte(p)) {
			coalesced = append(coalesced, p)
		}
	}

	// First offer after a quiet period pushes immediately.
	offer("a")
	if len(pushes) != 1 || pushes[0] != "a" {
		t.Fatalf("leading edge: pushes = %q", pushes)
	}

	// A burst inside the window is held, newest-wins, and flushed once
	// on the trailing edge.
	k.Schedule(10*time.Millisecond, func() { offer("b") })
	k.Schedule(20*time.Millisecond, func() { offer("c") })
	k.Schedule(30*time.Millisecond, func() { offer("d") })
	k.RunFor(99 * time.Millisecond)
	if len(pushes) != 1 {
		t.Fatalf("burst pushed early: %q", pushes)
	}
	k.RunFor(20 * time.Millisecond)
	if len(pushes) != 2 || pushes[1] != "d" {
		t.Fatalf("trailing edge: pushes = %q", pushes)
	}

	// "c" and "d" each replaced a held offer; "b" was held first.
	if !slices.Equal(coalesced, []string{"c", "d"}) {
		t.Fatalf("offers reported coalesced = %q, want [c d]", coalesced)
	}

	// After the window, the next offer pushes immediately again.
	k.RunFor(200 * time.Millisecond)
	offer("e")
	if len(pushes) != 3 || pushes[2] != "e" || len(coalesced) != 2 {
		t.Fatalf("post-quiet offer: pushes = %q, coalesced = %q", pushes, coalesced)
	}
}

func TestCoalescerDisabledPushesEverything(t *testing.T) {
	k := sim.New(1)
	n := 0
	co := NewCoalescer(clock.Kernel{K: k}, 0, func(uint32, []byte) { n++ })
	for i := 0; i < 5; i++ {
		if co.Offer(0, []byte("x")) {
			t.Fatalf("offer %d reported coalesced with coalescing off", i)
		}
	}
	if n != 5 {
		t.Fatalf("pushes = %d, want 5", n)
	}
}

func TestCacheLastValueSemantics(t *testing.T) {
	k := sim.New(1)
	c := NewCache(clock.Kernel{K: k})
	if _, ok := c.Get("t"); ok {
		t.Fatal("cold cache returned an entry")
	}
	buf := []byte("v1")
	c.Set("t", coap.FormatText, buf)
	buf[0] = 'X' // caller reuse must not corrupt the entry
	e, ok := c.Get("t")
	if !ok || string(e.Payload) != "v1" || e.Seq != 1 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	k.RunFor(3 * time.Second)
	c.Set("t", coap.FormatJSON, []byte("v2"))
	e, _ = c.Get("t")
	if e.Seq != 2 || e.ContentFormat != coap.FormatJSON {
		t.Fatalf("after update: %+v", e)
	}
	if age := c.Age(e); age != 0 {
		t.Fatalf("fresh entry age = %v", age)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestGatewayServesReadsFromCache(t *testing.T) {
	w := newVirtualWorld(t, Config{})
	w.gw.AddResource("plant/temp", "iiot.s.temp", nil)

	var codes []coap.Code
	var bodies []string
	get := func() {
		w.client.Get("gw", "plant/temp", func(m *coap.Message, err error) {
			if err != nil {
				t.Errorf("GET failed: %v", err)
				return
			}
			codes = append(codes, m.Code)
			bodies = append(bodies, string(m.Payload))
		})
	}

	get() // cold, no fallback: 5.03 so the client retries after first publish
	w.k.Run()
	if len(codes) != 1 || codes[0] != coap.CodeServiceUnavailable {
		t.Fatalf("cold read: codes = %v", codes)
	}

	w.gw.Publish("plant/temp", coap.FormatText, []byte("21.5"))
	w.k.Run()
	get()
	w.k.Run()
	if len(codes) != 2 || codes[1] != coap.CodeContent || bodies[1] != "21.5" {
		t.Fatalf("warm read: codes = %v bodies = %q", codes, bodies)
	}
}

func TestGatewayColdReadFallback(t *testing.T) {
	w := newVirtualWorld(t, Config{})
	w.gw.AddResource("plant/valve", "iiot.a.valve", func(string, *coap.Message) *coap.Message {
		return coap.TextResponse("open")
	})
	got := ""
	w.client.Get("gw", "plant/valve", func(m *coap.Message, err error) {
		if err == nil {
			got = string(m.Payload)
		}
	})
	w.k.Run()
	if got != "open" {
		t.Fatalf("fallback read = %q", got)
	}
}

func TestGatewayPublishNotifiesObservers(t *testing.T) {
	reg := metrics.NewRegistry()
	w := newVirtualWorld(t, Config{Coalesce: 50 * time.Millisecond, Metrics: reg})
	w.gw.AddResource("plant/temp", "iiot.s.temp", nil)

	// Registration only sticks on a success response, so warm the
	// cache before observing. The registration GET answers with this
	// representation.
	w.gw.Publish("plant/temp", coap.FormatText, []byte("19.0"))
	w.k.Run()

	var seen []string
	w.client.Observe("gw", "plant/temp", func(m *coap.Message, err error) {
		if err == nil {
			seen = append(seen, string(m.Payload))
		}
	})
	w.k.Run()

	// Let the coalescing window from the warm-up publish pass, then
	// burst three publishes inside one window: observers must see the
	// leading value and the trailing (newest) value only.
	w.k.RunFor(100 * time.Millisecond)
	w.gw.Publish("plant/temp", coap.FormatText, []byte("20.0"))
	w.k.Schedule(10*time.Millisecond, func() { w.gw.Publish("plant/temp", coap.FormatText, []byte("20.4")) })
	w.k.Schedule(20*time.Millisecond, func() { w.gw.Publish("plant/temp", coap.FormatText, []byte("20.9")) })
	w.k.Run()

	want := []string{"19.0", "20.0", "20.9"}
	if len(seen) != len(want) {
		t.Fatalf("deliveries = %q, want %q", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("deliveries = %q, want %q", seen, want)
		}
	}

	st := w.gw.Stats()
	if st.Offered != 4 || st.Published != 3 || st.Coalesced != 1 || st.Observers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// /metrics exposes the figures Stats reports.
	for name, want := range map[string]int64{"gw.notify.offered": st.Offered, "gw.notify.published": st.Published, "gw.notify.coalesced": st.Coalesced} {
		if got := reg.Counter(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, Stats says %d", name, got, want)
		}
	}
	if e, ok := w.gw.Cache().Get("plant/temp"); !ok || string(e.Payload) != "20.9" {
		t.Fatalf("cache after burst = %+v ok=%v", e, ok)
	}
}

func TestGatewayAdmissionControl(t *testing.T) {
	w := newVirtualWorld(t, Config{MaxObservers: 1, RejectMaxAge: 17})
	w.gw.AddResource("plant/temp", "iiot.s.temp", nil)
	w.gw.Publish("plant/temp", coap.FormatText, []byte("20.0"))
	w.k.Run()

	w.client.Observe("gw", "plant/temp", func(*coap.Message, error) {})
	w.k.Run()

	// Second registration from a second endpoint must bounce with
	// 5.03 + Max-Age — "come back later", not silent degradation.
	other := coap.NewConn(w.board.Attach("other"), clock.Kernel{K: w.k}, coap.ConnConfig{Seed: 9})
	other.Serve(coap.NewServer())
	defer other.Close()
	var code coap.Code
	var maxAge uint32
	other.Observe("gw", "plant/temp", func(m *coap.Message, err error) {
		if err != nil {
			return // ErrClosed fires for the kept registration at cleanup
		}
		code = m.Code
		if o, ok := m.Option(coap.OptMaxAge); ok {
			maxAge = o.Uint()
		}
	})
	w.k.Run()
	if code != coap.CodeServiceUnavailable || maxAge != 17 {
		t.Fatalf("admission reject: code=%v max-age=%d, want 5.03 max-age=17", code, maxAge)
	}
	if got := w.gw.Stats().Observers; got != 1 {
		t.Fatalf("observers after reject = %d, want 1", got)
	}
}

func TestHTTPReadPath(t *testing.T) {
	reg := metrics.NewRegistry()
	w := newVirtualWorld(t, Config{Metrics: reg})
	w.gw.AddResource("plant/temp", "iiot.s.temp", nil)
	h := w.gw.HTTPHandler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/v1/last/plant/temp"); rec.Code != 404 {
		t.Fatalf("cold read status = %d, want 404", rec.Code)
	}

	w.gw.Publish("plant/temp", coap.FormatText, []byte("21.5"))
	w.k.Run()
	rec := get("/v1/last/plant/temp")
	if rec.Code != 200 {
		t.Fatalf("warm read status = %d: %s", rec.Code, rec.Body)
	}
	var doc lastValue
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Resource != "plant/temp" || doc.Value != "21.5" || doc.Seq != 1 || doc.ContentFormat != coap.FormatText {
		t.Fatalf("doc = %+v", doc)
	}

	rec = get("/v1/resources")
	var list []resourceInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(list) != 1 || list[0].Resource != "plant/temp" || !list[0].Cached {
		t.Fatalf("resources = %+v", list)
	}

	rec = get("/v1/stats")
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if st.Resources != 1 || st.Published != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStatsCountDedupLog checks that Stats and /v1/stats count the CON
// exchanges the gateway's endpoint holds for duplicate detection, and
// that both fields return to 0 once they have expired.
func TestStatsCountDedupLog(t *testing.T) {
	w := newVirtualWorld(t, Config{})
	w.gw.AddResource("plant/temp", "iiot.s.temp", nil)
	// A CON this resource leaves unanswered is ACKed empty and not
	// cached, so it expires the log without adding to it.
	w.gw.Server().Resource("quiet").Get(func(string, *coap.Message) *coap.Message { return nil })
	w.gw.Publish("plant/temp", coap.FormatText, []byte("21.5"))
	w.k.Run()
	const gets = 3
	for i := 0; i < gets; i++ {
		w.client.Get("gw", "plant/temp", nil)
	}
	w.k.Run()
	st := w.gw.Stats()
	if st.DedupEntries != gets || st.DedupBytes <= 0 {
		t.Fatalf("after %d CON GETs: dedup entries %d, bytes %d", gets, st.DedupEntries, st.DedupBytes)
	}
	rec := httptest.NewRecorder()
	w.gw.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var served map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if served["dedup_entries"] != float64(gets) || served["dedup_bytes"] != float64(st.DedupBytes) || served["dedup_evicted"] != float64(0) {
		t.Fatalf("/v1/stats serves dedup_entries=%v dedup_bytes=%v dedup_evicted=%v, want %d, %d and 0", served["dedup_entries"], served["dedup_bytes"], served["dedup_evicted"], gets, st.DedupBytes)
	}
	if line := st.String(); !strings.Contains(line, " dedup_evicted=0") {
		t.Fatalf("Stats.String() = %q, want it to name dedup_evicted", line)
	}

	w.k.RunFor(time.Minute + time.Nanosecond) // the default ExchangeLifetime
	w.client.Get("gw", "quiet", nil)
	w.k.Run()
	if st := w.gw.Stats(); st.DedupEntries != 0 || st.DedupBytes != 0 {
		t.Fatalf("after expiry: dedup entries %d, bytes %d, want 0 and 0", st.DedupEntries, st.DedupBytes)
	}
}

// TestHTTPServerHasTimeouts checks the server's timeouts, and, served on
// a loopback listener, that a 16 KiB request header is refused with 431
// and a POST with 405.
func TestHTTPServerHasTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", nil)
	if s.ReadTimeout == 0 || s.WriteTimeout == 0 || s.ReadHeaderTimeout == 0 || s.IdleTimeout == 0 {
		t.Fatalf("missing timeouts: %+v", s)
	}

	w := newVirtualWorld(t, Config{})
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer("", w.gw.HTTPHandler())
	ts.Start()
	defer ts.Close()
	do := func(method, header string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", header)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		method, header string
		want           int
	}{
		{"GET", "x", http.StatusOK},
		{"GET", strings.Repeat("x", 16<<10), http.StatusRequestHeaderFieldsTooLarge},
		{"POST", "x", http.StatusMethodNotAllowed},
	} {
		if got := do(c.method, c.header); got != c.want {
			t.Errorf("%s with a %d-byte header: status %d, want %d", c.method, len(c.header), got, c.want)
		}
	}
}
