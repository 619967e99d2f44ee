package store

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// heldBytesPerPointMax is half the 43.5 B per replica-held point that
// TestFleetHeldBytesPerPoint measured when an engine head held raw
// points and an AP origin log held a second raw copy (linux/amd64,
// go1.24). Holding each reading encoded, once per engine and once per
// AP log, measured 19.8 B on the same host.
const heldBytesPerPointMax = 43.5 / 2

// TestFleetHeldBytesPerPoint bounds what the store holds per reading. One
// AP and one CP shard of three replicas each take 2 000 series × 76
// points — the store-fleet shape: a 1-point first report, then 5-point
// batches, one point in a hundred stamped late — and gossip until they
// converge. The live heap that adds, divided by the points the six
// replicas hold, must stay at or below heldBytesPerPointMax.
func TestFleetHeldBytesPerPoint(t *testing.T) {
	const series, points, batch = 2000, 76, 5
	const tick = 200 * time.Millisecond
	names := make([]string, series)
	for i := range names {
		names[i] = "dev/" + strconv.Itoa(i) + "/temp"
	}
	rng := rand.New(rand.NewSource(7))
	k := sim.New(7)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and the pooled work buffers the first cycle only demoted
	runtime.ReadMemStats(&before)

	s := NewSharded(clock.Kernel{K: k}, ShardedConfig{
		Shards:   2,
		Policy:   ShardPolicy{Mode: ModeAP, Replicas: 3},
		PerShard: map[int]ShardPolicy{1: {Mode: ModeCP, Replicas: 3}},
		Seed:     7,
		Node:     -1,
	})
	defer s.Stop()
	a := s.NewAppender()
	for tk := 0; tk < points; tk++ {
		for _, name := range names {
			stamp := time.Duration(tk+1) * tick
			if back := 1 + rng.Intn(batch); tk >= batch && rng.Intn(100) == 0 {
				stamp -= time.Duration(back)*tick - tick/2 - time.Duration(back) // late, on no other point's stamp
			}
			a.Append(name, Point{T: stamp, V: float64(rng.Intn(1<<24)) / 1024})
		}
		if tk%batch == 0 {
			a.Flush()
			k.RunFor(time.Second)
		}
	}
	for i := 0; !s.Converged(); i++ {
		if i == 60 {
			t.Fatal("the shards did not converge in a minute")
		}
		k.RunFor(time.Second)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := 0
	for i := 0; i < s.NumShards(); i++ {
		for _, r := range s.Shard(i).Replicas {
			held += r.SeriesStats().Retained
		}
	}
	if held != series*points*3 {
		t.Fatalf("replicas hold %d points, want %d", held, series*points*3)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(held)
	t.Logf("%.1f B of live heap per replica-held point (%d points)", per, held)
	if per > heldBytesPerPointMax {
		t.Fatalf("%.1f B per replica-held point, want <= %.1f", per, heldBytesPerPointMax)
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(names)
}
