package gateway

import (
	"fmt"
	"testing"

	"iiotds/internal/clock"
	"iiotds/internal/coap"
)

// sinkTransport swallows outbound datagrams; receiver injection drives
// registration. It is the benchmark-grade stand-in for a UDP socket.
type sinkTransport struct {
	recv func(from string, data []byte)
}

func (t *sinkTransport) Send(string, []byte) error                     { return nil }
func (t *sinkTransport) SetReceiver(fn func(from string, data []byte)) { t.recv = fn }
func (t *sinkTransport) LocalAddr() string                             { return "gw" }
func (t *sinkTransport) Close() error                                  { return nil }

// observeDatagram is one NON GET for path carrying Observe=obs: 0
// registers, 1 deregisters. Every observer shares its token: registry
// keys are (address, token), so distinct addresses alone keep observers
// distinct.
func observeDatagram(path string, obs uint32) []byte {
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeGET, Token: []byte{0x5e, 0xed}, MessageID: 0x5e5e}
	m.AddUintOption(coap.OptObserve, obs)
	m.SetPath(path)
	data, err := m.Marshal()
	if err != nil {
		panic(err)
	}
	return data
}

func observerAddr(i int) string { return "o" + fmt.Sprint(i) }

// benchGateway builds a gateway with n registered observers on one
// resource, using the inline (synchronous) notify path so the benchmark
// measures fan-out work, not goroutine scheduling.
func benchGateway(b *testing.B, n int, inline bool) *Gateway {
	b.Helper()
	tr := &sinkTransport{}
	conn := coap.NewConn(tr, &clock.System{}, coap.ConnConfig{})
	gw := New(conn, Config{MaxObservers: n, ConfirmEvery: -1, Inline: inline})
	gw.AddResource("bench", "bench", nil)
	gw.Publish("bench", coap.FormatText, []byte("warm"))
	reg := observeDatagram("bench", 0)
	for i := 0; i < n; i++ {
		tr.recv(observerAddr(i), reg)
	}
	if got := gw.Server().Resource("bench").ObserverCount(); got != n {
		b.Fatalf("registered %d of %d", got, n)
	}
	b.Cleanup(func() {
		gw.Close()
		conn.Close()
	})
	return gw
}

// BenchmarkNotifyFanOut measures one full NON notification fan-out per
// iteration across observer populations, on the inline (deterministic)
// path — the sim's sequential gather-sort-send loop. The pooled path's
// per-observer cost is gated separately (the coap package's zero-alloc
// hot-path test) and measured end to end by the gw-fanout workload of
// ./benchmark.
func BenchmarkNotifyFanOut(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("observers=%d", n), func(b *testing.B) {
			gw := benchGateway(b, n, true)
			payload := []byte("22.5")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gw.Publish("bench", coap.FormatText, payload)
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "notifies/s")
		})
	}
}

// registrationGateway is the registration path under test: an inline
// gateway with one warm, observable resource, no cap in the way, and its
// Observe=0 datagram.
func registrationGateway(tb testing.TB) (*sinkTransport, []byte) {
	tb.Helper()
	tr := &sinkTransport{}
	conn := coap.NewConn(tr, &clock.System{}, coap.ConnConfig{})
	gw := New(conn, Config{MaxObservers: 1 << 30, ConfirmEvery: -1, Inline: true})
	tb.Cleanup(func() {
		gw.Close()
		conn.Close()
	})
	gw.AddResource("bench", "bench", nil)
	gw.Publish("bench", coap.FormatText, []byte("warm"))
	return tr, observeDatagram("bench", 0)
}

// BenchmarkObserverRegistration measures the registration request path
// (handler dispatch, response encoding, shard insert) per new observer:
// every iteration registers a fresh address, built before the timer.
func BenchmarkObserverRegistration(b *testing.B) {
	tr, reg := registrationGateway(b)
	addrs := make([]string, b.N)
	for i := range addrs {
		addrs[i] = observerAddr(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.recv(addrs[i], reg)
	}
}

// gateBound is an alloc gate's bound: want, or 1 in a -race build
// (raceEnabled). There sync.Pool drops a random quarter of the items put
// back, so now and then a request rebuilds its pooled scratch: each gate
// averages at most 1.1 allocations per request under -race.
func gateBound(want float64) float64 {
	if raceEnabled {
		return 1
	}
	return want
}

// gateAllocs runs recv once per address through the transport's receive
// callback, the addresses built before the count, and returns the
// average number of allocations per call.
func gateAllocs(tr *sinkTransport, addrs []string, data []byte) float64 {
	i := 0
	return testing.AllocsPerRun(len(addrs)-1, func() { // AllocsPerRun warms up with one extra call
		tr.recv(addrs[i], data)
		i++
	})
}

func observerAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = observerAddr(i)
	}
	return addrs
}

// TestObserverRegistrationAllocs is the alloc gate on the registration
// path: 10 000 new observers through the transport's receive callback
// allocate nothing, the caller's address string not counted (23 when
// keys were formatted strings, every option value was cloned and Marshal
// sorted through reflection; 7 while each observer was a separate heap
// object; 6 while each request was decoded onto the heap, its answer
// built per request and encoded into a fresh buffer).
func TestObserverRegistrationAllocs(t *testing.T) {
	tr, reg := registrationGateway(t)
	allocs := gateAllocs(tr, observerAddrs(10001), reg)
	t.Logf("%.0f allocations per registration", allocs)
	if bound := gateBound(0); allocs > bound {
		t.Fatalf("registration allocates %.0f times per observer, want <= %.0f", allocs, bound)
	}
}

// TestObserverDeregistrationAllocs is the alloc gate on NON
// deregistration (Observe=1): 10 000 registered observers leave, each
// answered from the cache, without allocating (5 while each request was
// decoded onto the heap).
func TestObserverDeregistrationAllocs(t *testing.T) {
	const n = 10000
	tr, reg := registrationGateway(t)
	addrs := observerAddrs(n + 1)
	for _, a := range addrs {
		tr.recv(a, reg)
	}
	allocs := gateAllocs(tr, addrs, observeDatagram("bench", 1))
	t.Logf("%.0f allocations per deregistration", allocs)
	if bound := gateBound(0); allocs > bound {
		t.Fatalf("deregistration allocates %.0f times per observer, want <= %.0f", allocs, bound)
	}
}

// TestCachedGETAllocs is the alloc gate on a cache-served CON GET: 10 000
// of them from one address, each with its own MID, are answered and
// logged for duplicate detection without allocating (4 while each
// request was decoded onto the heap and each answer built per request).
func TestCachedGETAllocs(t *testing.T) {
	const n = 10000
	tr, _ := registrationGateway(t)
	get := &coap.Message{Type: coap.Confirmable, Code: coap.CodeGET, Token: []byte{0xC0, 0xAB}}
	get.SetPath("bench")
	req, err := get.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv("10.0.0.1:5683", req)
		i++
	})
	t.Logf("%.0f allocations per cached GET", allocs)
	if bound := gateBound(0); allocs > bound {
		t.Fatalf("a cached GET allocates %.0f times, want <= %.0f", allocs, bound)
	}
}
