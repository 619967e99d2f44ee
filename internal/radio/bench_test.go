package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iiotds/internal/sim"
)

// benchMedium builds an N-node medium. dense packs everyone into one
// RangeMax-sized square (every node hears every other — the worst case
// for fan-out work); sparse spreads nodes at roughly uniform density ~6
// neighbors each, the regime a city-scale fleet lives in and where a
// kept link list pays off against the O(N) rescan.
func benchMedium(n int, dense bool) (*sim.Kernel, *Medium) {
	k := sim.New(1)
	m := NewMedium(k, DefaultParams(), nil)
	rng := rand.New(rand.NewSource(7))
	span := 30.0 // everyone within range of everyone
	if !dense {
		// Area giving ~6 expected nodes within RangeMax of a point.
		span = DefaultParams().RangeMax * math.Sqrt(math.Pi*float64(n)/6)
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
// before/after.
func BenchmarkSend(b *testing.B) {
	for _, density := range []string{"dense", "sparse"} {
		for _, n := range []int{100, 1000, 10000} {
			for _, mode := range []string{"indexed", "brute"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", density, n, mode), func(b *testing.B) {
					k, m := benchMedium(n, density == "dense")
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
}

// TestSendFanoutAllocFree is the CI gate for the satellite requirement:
// the indexed delivery path allocates nothing in steady state. The
// first sends warm the transmission pool, the per-node energy ledgers
// and every sender's link list; after that Send + completion must be
// 0 allocs/op — also when a move voids every list and each is rebuilt
// into the capacity it has, and for a sender another shard hosts from
// its second announcement on.
func TestSendFanoutAllocFree(t *testing.T) {
	const n, walker = 500, NodeID(7)
	k, m := benchMedium(n, false)
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
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"a warmed link list", send},
		{"a rebuild after a move that grows no list", step},
		{"a foreign sender's second announcement", announce},
	} {
		if avg := testing.AllocsPerRun(300, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
	if m.Registry().Counter("radio.rx_frames").Value() == 0 {
		t.Fatal("nothing was delivered")
	}
}
