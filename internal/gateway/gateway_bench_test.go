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

// observeDatagram is one registration (Observe=0) GET for path. Every
// observer shares its token: registry keys are (address, token), so
// distinct addresses alone keep observers distinct.
func observeDatagram(path string) []byte {
	m := &coap.Message{Type: coap.NonConfirmable, Code: coap.CodeGET, Token: []byte{0x5e, 0xed}, MessageID: 0x5e5e}
	m.AddUintOption(coap.OptObserve, 0)
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
	reg := observeDatagram("bench")
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
	return tr, observeDatagram("bench")
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

// TestObserverRegistrationAllocs is the alloc gate on the registration
// path: 10 000 new observers through the transport's receive callback
// average at most 6 allocations each, the caller's address string not
// counted (23 when keys were formatted strings, every option value was
// cloned and Marshal sorted through reflection; 7 while each observer was
// a separate heap object). Run without -race.
func TestObserverRegistrationAllocs(t *testing.T) {
	const n = 10000
	tr, reg := registrationGateway(t)
	addrs := make([]string, n+1) // AllocsPerRun warms up with one extra call
	for i := range addrs {
		addrs[i] = observerAddr(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		tr.recv(addrs[i], reg)
		i++
	})
	if allocs > 6 {
		t.Fatalf("registration allocates %.0f times per observer, want <= 6", allocs)
	}
}
