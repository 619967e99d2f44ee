package coap

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
// per answered CON, and what the bound lets it hold. 13 000 CON GETs from
// distinct addresses, each answered with a 16-byte payload, fit under
// the 1 MiB bound and may grow the live heap by at most 80 B each, the
// address strings allocated before the baseline (144 B, and the caller's
// address string kept alive, while the cache was a map of keys to
// separately allocated answers plus a FIFO of keys). 200 000 CONs within
// the lifetime then hold at most 1 MiB plus one chunk. Once they have all
// expired, one more CON must leave at most 1 MB held: a burst must not
// pin its memory in a long-running gateway. Run without -race.
func TestDedupHeldBytes(t *testing.T) {
	const fit, n = 13_000, 200_000
	conn, tr, k, req := conGetServer(t)
	defer conn.Close()
	addrs := make([]string, n+1)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.%d.%d.%d:5683", i>>16, i>>8&0xFF, i&0xFF)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, a := range addrs[:fit] {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv(a, req)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if _, _, evicted := conn.DedupStats(); evicted != 0 {
		t.Fatalf("%d CONs evicted %d, want a burst that fits under the bound", fit, evicted)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / fit
	t.Logf("%.1f B of live heap per cached CON (%d CONs)", per, fit)
	if per > 80 {
		t.Fatalf("dedup cache holds %.1f B per CON, want <= 80", per)
	}

	most, bound := 0, 0
	for i := fit; i < n; i++ {
		req[2], req[3] = byte(i>>8), byte(i)
		tr.recv(addrs[i], req)
		_, held, _ := conn.DedupStats()
		most, bound = max(most, held), max(bound, heldBound(&conn.dedup))
	}
	if got := tr.sent.Load(); got != n {
		t.Fatalf("%d answers sent, want %d", got, n)
	}
	_, _, evicted := conn.DedupStats()
	t.Logf("%d CONs within the lifetime: at most %d B held (bound %d B), %d evicted", n, most, bound, evicted)
	if most > bound || evicted == 0 {
		t.Fatalf("%d CONs within the lifetime held up to %d B (want <= %d) and evicted %d (want > 0)", n, most, bound, evicted)
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

// heldBound is what the bound lets l hold: dedupMaxHeld plus its largest
// chunk.
func heldBound(l *dedupLog) int {
	most := 0
	for _, c := range l.chunks {
		most = max(most, c.size())
	}
	return dedupMaxHeld + most
}

// TestDedupOverload offers one Conn fresh CON GETs on virtual time, at
// 1 000/s and at 20 000/s, for two exchange lifetimes of 10 s each. At
// both rates the log holds at most 1 MiB plus one chunk. The lower rate
// fits a whole lifetime under the bound and evicts nothing; the higher
// one evicts.
func TestDedupOverload(t *testing.T) {
	const lifetime = 10 * time.Second
	addrs := make([]string, 4096)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:5683", i>>8, i&0xFF)
	}
	for _, c := range []struct {
		rate   int
		evicts bool
	}{{1_000, false}, {20_000, true}} {
		conn, tr, k, req := conGetServer(t)
		conn.cfg.ExchangeLifetime = lifetime
		most, bound, i := 0, 0, 0
		for ms := 0; ms < int(2*lifetime/time.Millisecond); ms++ {
			for j := 0; j < c.rate/1000; j++ {
				mid := i / len(addrs) // no pair repeats: every CON is fresh
				req[2], req[3] = byte(mid>>8), byte(mid)
				tr.recv(addrs[i%len(addrs)], req)
				i++
			}
			_, held, _ := conn.DedupStats()
			most, bound = max(most, held), max(bound, heldBound(&conn.dedup))
			k.RunFor(time.Millisecond)
		}
		entries, _, evicted := conn.DedupStats()
		conn.Close()
		t.Logf("%d CONs/s: at most %d B held (bound %d B), %d entries at the end, %d evicted", c.rate, most, bound, entries, evicted)
		if most > bound {
			t.Errorf("%d CONs/s: %d B held, want <= %d", c.rate, most, bound)
		}
		if (evicted > 0) != c.evicts || !c.evicts && entries < c.rate*int(lifetime/time.Second) {
			t.Errorf("%d CONs/s: %d evicted with %d entries held, want evictions: %v (and a whole lifetime held without)", c.rate, evicted, entries, c.evicts)
		}
	}
}

// TestDedupBoundEvictsOldestFirst drives the log alone past its bound
// over drawn sequences: 256 pairs (some with 47-byte addresses), answers
// of 500 to 1 100 B, a pair often answered again while older records of
// it are held (some at the same instant), arrival times in order as one
// Conn gives them, mostly 1 ms apart and now and then a third of a
// lifetime, and half the seeds starting the sequence counter just below
// 2^32. A drawn lookup must replay the newest answer of its pair. After
// every expiry that releases records it looks every pair up and checks
// that each replay is its pair's newest answer and within its lifetime,
// that every pair lost before its lifetime arrived before every pair
// still held, and that the eviction counter equals the pairs lost early.
// The log holds at most 1 MiB plus the chunk it fills: a chunk of such
// long answers takes no more than its 64 KiB buffer, its record array
// and room for one answer.
func TestDedupBoundEvictsOldestFirst(t *testing.T) {
	const lifetime, steps = 10 * time.Second, 6000
	const bound = dedupMaxHeld + dedupChunkBytes + dedupChunkBytes/500*int(unsafe.Sizeof(dedupRec{})) + 1200
	addrs := make([]string, 64)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:5683", i)
		if i%8 == 0 {
			addrs[i] = dedupAddr47[:47-len(fmt.Sprint(i))] + fmt.Sprint(i)
		}
	}
	// answer is a pair's newest answer; seq numbers the pair's arrival
	// at that instant, the one its head record stands for.
	type answer struct {
		data []byte
		at   time.Duration
		seq  int
		lost bool // missed before its lifetime
	}
	aged := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log dedupLog
		if seed%2 == 0 {
			log.first = 1<<32 - 500
			log.next = log.first
		}
		newest := map[midKey]*answer{}
		lost := 0
		now := time.Duration(0)
		for step := 0; step < steps; step++ {
			first := log.first
			log.expire(now, lifetime)
			if log.held > bound {
				t.Fatalf("seed %d step %d: %d B held, want <= %d", seed, step, log.held, bound)
			}
			if log.first != first {
				lastLost, firstHeld := -1, steps
				for k, a := range newest {
					got := log.lookup(k.addr, k.mid)
					switch {
					case got != nil:
						if !bytes.Equal(got, a.data) || now-a.at > lifetime {
							t.Fatalf("seed %d step %d: %s/%d replays %x, want its newest answer %x of %v ago within %v", seed, step, k.addr, k.mid, got, a.data, now-a.at, lifetime)
						}
						firstHeld = min(firstHeld, a.seq)
					case now-a.at <= lifetime:
						if !a.lost {
							a.lost = true
							lost++
						}
						lastLost = max(lastLost, a.seq)
					default:
						delete(newest, k)
						aged++
					}
				}
				if lastLost > firstHeld {
					t.Fatalf("seed %d step %d: the pair that arrived %d was evicted while the one that arrived %d is held", seed, step, lastLost, firstHeld)
				}
				if log.evicted != int64(lost) {
					t.Fatalf("seed %d step %d: %d evictions counted, %d pairs lost early", seed, step, log.evicted, lost)
				}
			}
			key := midKey{addrs[rng.Intn(len(addrs))], uint16(rng.Intn(4))}
			switch op := rng.Intn(10); {
			case op < 3:
				got := log.lookup(key.addr, key.mid)
				if a := newest[key]; got != nil && (a == nil || !bytes.Equal(got, a.data) || now-a.at > lifetime) {
					t.Fatalf("seed %d step %d: %s/%d replays %x, want its newest answer within its lifetime", seed, step, key.addr, key.mid, got)
				}
			case op < 9:
				m := &Message{Type: Acknowledgement, Code: CodeContent, MessageID: key.mid, Token: []byte{byte(step), byte(step >> 8)}, Payload: make([]byte, 500+rng.Intn(601))}
				data, err := log.add(key.addr, key.mid, now, m)
				if err != nil {
					t.Fatal(err)
				}
				if log.held > bound {
					t.Fatalf("seed %d step %d: %d B held after an answer, want <= %d", seed, step, log.held, bound)
				}
				a := &answer{data: data, at: now, seq: step}
				if old := newest[key]; old != nil && old.at == now && !old.lost {
					a.seq = old.seq
				}
				newest[key] = a
			}
			switch {
			case rng.Intn(1500) == 0:
				now += lifetime / 3
			case rng.Intn(4) != 0:
				now += time.Millisecond
			}
		}
		if log.evicted == 0 {
			t.Fatalf("seed %d: the bound never bound", seed)
		}
		t.Logf("seed %d: %d pairs evicted", seed, log.evicted)
	}
	if aged == 0 {
		t.Fatal("no pair ever expired by age")
	}
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
	if n, _, _ := conn.DedupStats(); n != len(keys) {
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
		_, held, _ := conn.DedupStats()
		most = max(most, held)
	}
	entries, _, _ := conn.DedupStats()
	t.Logf("%d entries live, at most %d B held", entries, most)
	if entries != 61 || most > 8<<10 {
		t.Fatalf("%d entries live (want 61), at most %d B held (want <= 8 KB)", entries, most)
	}
}
