package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iiotds/internal/sim"
)

// benchMedium builds an N-node medium whose nodes are spread uniformly
// over a square sized so that about degree others lie within RangeMax
// of a point. Degree 0 packs everyone into one 30-m square instead:
// every node hears every other, the worst case for fan-out work. Degree
// 6 is the regime a city-scale fleet lives in, where a kept link list
// pays off against the O(N) rescan; 40 is fig1-uplink's.
func benchMedium(n int, degree float64) (*sim.Kernel, *Medium) {
	k := sim.New(1)
	m := NewMedium(k, DefaultParams(), nil)
	rng := rand.New(rand.NewSource(7))
	span := 30.0 // everyone within range of everyone
	if degree > 0 {
		span = DefaultParams().RangeMax * math.Sqrt(math.Pi*float64(n)/degree)
	}
	for i := 0; i < n; i++ {
		m.Attach(NodeID(i), Position{X: rng.Float64() * span, Y: rng.Float64() * span}, ReceiverFunc(func(Frame) {}))
		m.SetListening(NodeID(i), true)
	}
	return k, m
}

// BenchmarkSend measures one Send fan-out plus its completion drain.
// The indexed path walks the sender's kept link list, built by one send
// from every sender the timed loop uses before the timer starts, so the
// figure is a send's and not a list build's; brute is the reference
// O(N) rescan on every send. BENCH_spatial.json records the
// before/after. degree40 is the per-link case (sendDegree40).
func BenchmarkSend(b *testing.B) {
	for _, density := range []struct {
		name   string
		degree float64
	}{{"dense", 0}, {"sparse", 6}} {
		for _, n := range []int{100, 1000, 10000} {
			for _, mode := range []string{"indexed", "brute"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", density.name, n, mode), func(b *testing.B) {
					k, m := benchMedium(n, density.degree)
					m.SetBruteForce(mode == "brute")
					send := func(i int) {
						m.Send(Frame{From: NodeID(i % n), To: Broadcast, Size: 30})
						k.Run() // drain the completion event
					}
					for i := 0; i < min(n, b.N); i++ {
						send(i)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						send(i)
					}
				})
			}
		}
	}
	b.Run("degree40/n=1000/indexed", sendDegree40)
}

// sendDegree40 measures the per-link cost of a fan-out at
// fig1-uplink's degree: 1000 nodes, about 40 listening to each frame.
// An op is two broadcasts half an airtime apart, from a node and from
// its nearest neighbour, so the receivers they share already hear the
// first frame when the second reaches them (the collision path), and
// their completions. It reports ns per frame.
func sendDegree40(b *testing.B) {
	const n = 1000
	k, m := benchMedium(n, 40)
	next := make([]NodeID, n)
	for i := range next {
		next[i] = m.NeighborsOf(NodeID(i))[0]
	}
	half := m.Airtime(30) / 2
	op := func(i int) {
		from := NodeID(i % n)
		m.Send(Frame{From: from, To: Broadcast, Size: 30})
		k.RunFor(half)
		m.Send(Frame{From: next[from], To: Broadcast, Size: 30})
		k.Run()
	}
	for i := 0; i < n; i++ { // build every list the timed loop uses
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/frame")
	if m.Registry().Counter("radio.collisions").Value() == 0 {
		b.Fatal("no frame found a receiver already hearing a flight")
	}
}

// TestSendFanoutAllocFree is the CI gate for the satellite requirement:
// the indexed delivery path allocates nothing in steady state. The
// first sends warm the transmission pool, the per-node energy ledgers,
// every sender's link list and the hearing state of both channels;
// after that Send + completion must be 0 allocs/op — also when a move
// voids every list and each is rebuilt into the capacity it has, when a
// move under a frame on the air rebuilds the hearing state, when a send
// spoils the copy a live flight's receiver was decoding, on the second
// channel, and for a sender another shard hosts from its second
// announcement on.
func TestSendFanoutAllocFree(t *testing.T) {
	const n, walker = 500, NodeID(7)
	k, m := benchMedium(n, 6)
	i := 0
	send := func() {
		m.Send(Frame{From: NodeID(i % n), To: Broadcast, Size: 30})
		k.Run()
		i++
	}
	// The walker steps a millimetre back and forth: every list is void
	// after each step, none has to grow once both spots were seen.
	spots := [2]Position{m.PositionOf(walker), m.PositionOf(walker)}
	spots[1].X += 0.001
	step := func() {
		m.SetPosition(walker, spots[i%2])
		send()
	}
	for _, spot := range spots { // warm pools, ledgers and lists from every sender
		m.SetPosition(walker, spot)
		for j := 0; j < n; j++ {
			send()
		}
	}
	foreign := Announcement{From: 9000, To: Broadcast, Pos: m.PositionOf(3), Size: 30}
	announce := func() {
		foreign.Start = k.Now()
		foreign.End = foreign.Start + m.Airtime(foreign.Size)
		m.ApplyForeign(foreign)
		k.Run()
	}
	announce() // the first announcement builds the foreign sender's list
	// Two neighbours' frames overlap: the second spoils the copies of the
	// first that their common neighbours were decoding.
	near := m.NeighborsOf(walker)[0]
	overlap := func(mid func()) {
		m.Send(Frame{From: walker, To: Broadcast, Size: 30})
		mid()
		m.Send(Frame{From: near, To: Broadcast, Size: 30})
		k.Run()
		i++
	}
	spoil := func() { overlap(func() {}) }
	moveMidFlight := func() { overlap(func() { m.SetPosition(walker, spots[i%2]) }) }
	second := func() {
		m.Send(Frame{From: NodeID(i % n), To: Broadcast, Channel: 1, Size: 30})
		k.Run()
		i++
	}
	second()
	collisions := m.Registry().Counter("radio.collisions")
	for _, c := range []struct {
		name     string
		fn       func()
		collides bool
	}{
		{"a warmed link list", send, false},
		{"a rebuild after a move that grows no list", step, false},
		{"a send that spoils a live flight's copies", spoil, true},
		{"a hearing rebuild after a move under a live flight", moveMidFlight, true},
		{"a send on a second channel", second, false},
		{"a foreign sender's second announcement", announce, false},
	} {
		before := collisions.Value()
		if avg := testing.AllocsPerRun(300, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
		if c.collides && collisions.Value() == before {
			t.Errorf("%s: nothing collided", c.name)
		}
	}
	if m.Registry().Counter("radio.rx_frames").Value() == 0 {
		t.Fatal("nothing was delivered")
	}
}
