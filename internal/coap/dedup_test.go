package coap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// recvTransport hands the test the Conn's receive callback and discards
// what the Conn sends.
type recvTransport struct {
	sinkTransport
	recv func(from string, data []byte)
}

func (r *recvTransport) SetReceiver(fn func(from string, data []byte)) { r.recv = fn }

// conGetServer is a Conn on virtual time whose resource "r" answers
// every GET with a 16-byte payload, and a CON GET datagram for it whose
// MID the caller may patch (bytes 2 and 3).
func conGetServer(t testing.TB) (*Conn, *recvTransport, *sim.Kernel, []byte) {
	t.Helper()
	k := sim.New(1)
	tr := &recvTransport{}
	conn := NewConn(tr, clock.Kernel{K: k}, ConnConfig{})
	srv := NewServer()
	payload := []byte("0123456789abcdef")
	srv.Resource("r").Get(func(string, *Message) *Message {
		return &Message{Code: CodeContent, Payload: payload}
	})
	conn.Serve(srv)
	req := &Message{Type: Confirmable, Code: CodeGET, Token: []byte{0xC0, 0xAB}}
	req.SetPath("r")
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return conn, tr, k, data
}

// TestDedupHeldBytes gates what the CON duplicate-detection cache holds
// per answered CON: 200 000 CON GETs from distinct addresses, each
// answered with a 16-byte payload, may grow the live heap by at most
// 80 B each, the address strings allocated before the baseline (144 B,
// and the caller's address string kept alive, while the cache was a map
// of keys to separately allocated answers plus a FIFO of keys). Once
// they have all expired, one more CON must leave at most 1 MB held: a
// burst must not pin its memory in a long-running gateway. Run without
// -race.
func TestDedupHeldBytes(t *testing.T) {
	const n = 200_000
	conn, tr, k, req := conGetServer(t)
	defer conn.Close()
	addrs := make([]string, n+1)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.%d.%d.%d:5683", i>>16, i>>8&0xFF, i&0xFF)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, a := range addrs[:n] {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv(a, req)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := tr.sent.Load(); got != n {
		t.Fatalf("%d answers sent, want %d", got, n)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of live heap per cached CON (%d CONs)", per, n)
	if per > 80 {
		t.Fatalf("dedup cache holds %.1f B per CON, want <= 80", per)
	}

	k.RunFor(conn.cfg.ExchangeLifetime + time.Nanosecond)
	tr.recv(addrs[n], req)
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d B held after the burst expired and one more CON", held)
	if held > 1<<20 {
		t.Fatalf("%d B still held after every cached CON expired, want <= 1 MB", held)
	}
	runtime.KeepAlive(addrs)
}

// TestCONRequestAllocs is the alloc gate on a CON request answered by a
// handler: parsing it, the handler's response and caching the answer
// cost one allocation, the handler's own &Message (5 while the answer
// was marshalled into its own buffer before being cached; 4 while the
// request was decoded onto the heap). The bound holds under -race too,
// where sync.Pool drops a random quarter of the pooled request scratch
// and the count averages 1.5.
func TestCONRequestAllocs(t *testing.T) {
	const n = 10000
	conn, tr, _, req := conGetServer(t)
	defer conn.Close()
	i := 0
	allocs := testing.AllocsPerRun(n, func() {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv("10.0.0.1:5683", req)
		i++
	})
	if got := tr.sent.Load(); got != n+1 {
		t.Fatalf("%d answers sent, want %d", got, n+1)
	}
	t.Logf("%.0f allocations per CON GET", allocs)
	if allocs > 1 {
		t.Fatalf("a CON GET allocates %.0f times, want <= 1", allocs)
	}
}

// pairTransport records, under a lock, what the Conn sends to whom.
type pairTransport struct {
	recvTransport
	mu   sync.Mutex
	sent []sentDatagram
}

func (p *pairTransport) Send(addr string, data []byte) error {
	p.mu.Lock()
	p.sent = append(p.sent, sentDatagram{addr, append([]byte(nil), data...)})
	p.mu.Unlock()
	return nil
}

// TestConcurrentCONDedup delivers every CON GET once from each of
// several goroutines at once, while another goroutine reads DedupStats:
// every answer goes to its own (address, MID), a replayed answer is one
// the handler gave that pair, and afterwards every pair is held once and
// a further duplicate is replayed without running the handler.
func TestConcurrentCONDedup(t *testing.T) {
	const workers, each = 4, 200
	tr := &pairTransport{}
	conn := NewConn(tr, &clock.System{}, ConnConfig{})
	defer conn.Close()
	var calls atomic.Int64
	srv := NewServer()
	srv.Resource("r").Get(func(string, *Message) *Message {
		return &Message{Code: CodeContent, Payload: []byte(fmt.Sprint(calls.Add(1)))}
	})
	conn.Serve(srv)
	req := func(mid uint16) []byte {
		m := &Message{Type: Confirmable, Code: CodeGET, MessageID: mid, Token: []byte{1}}
		m.SetPath("r")
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	keys := make([]midKey, 0, each)
	for i := 0; i < each; i++ {
		keys = append(keys, midKey{fmt.Sprintf("c%d", i%7), uint16(i)})
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				conn.DedupStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range keys {
				k := keys[(i+w*each/workers)%len(keys)] // each worker starts elsewhere
				tr.recv(k.addr, req(k.mid))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	answers := map[string]midKey{} // answer payload -> the pair it answered
	for _, d := range tr.sent {
		m, err := Unmarshal(d.data)
		if err != nil || m.Type != Acknowledgement {
			t.Fatalf("sent %x to %s", d.data, d.addr)
		}
		k := midKey{d.addr, m.MessageID}
		if prev, ok := answers[string(m.Payload)]; ok && prev != k {
			t.Fatalf("answer %q went to %v and to %v", m.Payload, prev, k)
		}
		answers[string(m.Payload)] = k
	}
	if n, _ := conn.DedupStats(); n != len(keys) {
		t.Fatalf("%d pairs held, want %d", n, len(keys))
	}
	before := calls.Load()
	tr.sent = nil
	for _, k := range keys {
		tr.recv(k.addr, req(k.mid))
	}
	for i, d := range tr.sent {
		m, err := Unmarshal(d.data)
		if err != nil || answers[string(m.Payload)] != keys[i] {
			t.Fatalf("duplicate of %v replayed %x", keys[i], d.data)
		}
	}
	if calls.Load() != before {
		t.Fatalf("duplicates ran the handler %d times", calls.Load()-before)
	}
}

// TestDedupSteadyChunks holds a Conn that answers one CON a second for
// ten lifetimes, 61 live entries at a time, to chunks sized by what it
// holds: at most 8 KB of records and bytes (7.2 KB on linux/amd64;
// 46 KB when each chunk doubled its predecessor's size).
func TestDedupSteadyChunks(t *testing.T) {
	conn, tr, k, req := conGetServer(t)
	defer conn.Close()
	most := 0
	for i := 0; i < 600; i++ {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv("10.0.0.1:5683", req)
		k.RunFor(time.Second)
		_, held := conn.DedupStats()
		most = max(most, held)
	}
	entries, _ := conn.DedupStats()
	t.Logf("%d entries live, at most %d B held", entries, most)
	if entries != 61 || most > 8<<10 {
		t.Fatalf("%d entries live (want 61), at most %d B held (want <= 8 KB)", entries, most)
	}
}
