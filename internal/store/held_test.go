package store

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/sim"
)

// heldBytesPerPointMax bounds what TestFleetHeldBytesPerPoint measures
// per replica-held point (linux/amd64, go1.24): 43.5 B when an engine
// head held raw points and an AP origin log held a second raw copy;
// 19.8 B holding each reading encoded, once per engine and once per AP
// log; 12.3 B once an AP replica drops the ops every peer has reported
// holding, so a converged reading is held once per engine.
const heldBytesPerPointMax = 14.0

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

// opLogBytes is the capacity the AP replicas of s hold for op bytes and
// op offsets.
func opLogBytes(s *Sharded) int {
	n := 0
	for i := 0; i < s.NumShards(); i++ {
		for _, r := range s.Shard(i).Replicas {
			ap, ok := r.state.(*apState)
			if !ok {
				continue
			}
			ap.mu.Lock()
			for _, o := range ap.origins {
				n += cap(o.data) + 4*cap(o.offs)
			}
			ap.mu.Unlock()
		}
	}
	return n
}

// TestAPOpLogHeldBytes: what an AP shard holds of its op logs after
// convergence does not grow with the history behind it, grows while a
// replica is cut off (its peers cannot drop what it has not reported),
// and falls back once the cut heals and the group converges.
func TestAPOpLogHeldBytes(t *testing.T) {
	series := testSeries(50)
	ingest := func(s *Sharded, k *sim.Kernel, a *Appender, from, seconds int) {
		for sec := from; sec < from+seconds; sec++ {
			for tk := 0; tk < 5; tk++ {
				for i, name := range series {
					a.Append(name, Point{T: time.Duration(sec)*time.Second + time.Duration(tk)*200*time.Millisecond, V: float64(i + tk)})
				}
			}
			a.Flush()
			k.RunFor(time.Second)
		}
	}
	settle := func(s *Sharded, k *sim.Kernel) int {
		for i := 0; !s.Converged(); i++ {
			if i == 60 {
				t.Fatal("the shard did not converge in a minute")
			}
			k.RunFor(time.Second)
		}
		k.RunFor(10 * time.Second) // every replica hears every peer's summary
		return opLogBytes(s)
	}
	held := map[int]int{}
	for _, seconds := range []int{20, 200} {
		s, k := newSharded(t, 1, 3, ModeAP)
		a := s.NewAppender()
		ingest(s, k, a, 0, seconds)
		held[seconds] = settle(s, k)
		if seconds > 20 {
			continue
		}
		s.PartitionReplica(2)
		ingest(s, k, a, seconds, 20)
		cut := opLogBytes(s)
		s.Heal()
		healed := settle(s, k)
		t.Logf("op-log bytes held: %d converged, %d after 20 s cut off, %d healed", held[seconds], cut, healed)
		if cut <= held[seconds] {
			t.Fatalf("20 s with a replica cut off left %d B of op logs, not more than the %d B converged", cut, held[seconds])
		}
		if healed > held[seconds] {
			t.Fatalf("after the heal the op logs hold %d B, more than the %d B before the cut", healed, held[seconds])
		}
	}
	if held[20] != held[200] {
		t.Fatalf("converged op logs hold %d B after 20 s of ingest and %d B after 200 s", held[20], held[200])
	}
}

// TestAPDropUnderConcurrentIngest: on the wall clock, gossip rounds run
// on timer goroutines while producers append from several more, so
// reports, drops and Delta copies race appends for the state. Once the
// producers stop the group converges and holds no op bytes.
func TestAPDropUnderConcurrentIngest(t *testing.T) {
	s := NewSharded(&clock.System{}, ShardedConfig{
		Policy:         ShardPolicy{Mode: ModeAP, Replicas: 3},
		GossipInterval: 5 * time.Millisecond,
		Node:           -1,
	})
	defer s.Stop()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := "dev/" + strconv.Itoa(p)
			for i := 0; i < 300; i++ {
				s.Ingest(name, []Point{{T: time.Duration(i) * time.Millisecond, V: float64(p)}}, nil)
				if i%50 == 0 {
					time.Sleep(2 * time.Millisecond) // let rounds interleave with the appends
				}
			}
		}(p)
	}
	wg.Wait()
	for deadline := time.Now().Add(20 * time.Second); !s.Converged() || opLogBytes(s) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("20 s after ingest stopped: converged %v, %d B of op logs held", s.Converged(), opLogBytes(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, r := range s.Shard(0).Replicas {
		if n := r.SeriesStats().Retained; n != 4*300 {
			t.Fatalf("replica %d holds %d points, want %d", i, n, 4*300)
		}
	}
}
