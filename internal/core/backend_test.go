package core

import (
	"testing"
	"time"

	"iiotds/internal/radio"
	"iiotds/internal/store"
)

var backendStore = store.ShardedConfig{Shards: 2, Policy: store.ShardPolicy{Mode: store.ModeAP, Replicas: 3}}

// feedAndSettle is the whole seam end to end: converge, attach, feed for
// a minute, stop, flush the partial batches and let the store reconcile.
func feedAndSettle(t *testing.T, e *Fleet) (*Backend, *Push) {
	t.Helper()
	if ok, _ := e.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	be := e.AttachBackend(backendStore)
	t.Cleanup(be.Close)
	feed := be.Feed(5*time.Second, 5*time.Second)
	e.RunFor(time.Minute)
	feed.Stop()
	e.RunFor(2 * time.Second) // in-flight readings land
	be.Flush()
	e.RunFor(5 * time.Second) // acks and anti-entropy
	return be, feed
}

// replicaDigests is the store's whole replicated state, replica by
// replica.
func replicaDigests(s *store.Sharded) []uint64 {
	var out []uint64
	for i := 0; i < s.NumShards(); i++ {
		for _, r := range s.Shard(i).Replicas {
			out = append(out, r.SeriesDigest())
		}
	}
	return out
}

func TestBackendFeedReachesConvergedStore(t *testing.T) {
	forEachEngine(t, gridStack(16, Profile{}), func(t *testing.T, e *Fleet) {
		be, feed := feedAndSettle(t, e)
		sent, delivered := feed.Sent(), be.Delivered()
		if delivered == 0 || delivered > sent {
			t.Fatalf("delivered %d of %d sent", delivered, sent)
		}
		if acked, failed := be.Batches(); acked == 0 || failed != 0 {
			t.Fatalf("batches acked=%d failed=%d", acked, failed)
		}
		if !be.Store.Converged() {
			t.Fatalf("%d/%d store shards converged", be.Store.ConvergedShards(), be.Store.NumShards())
		}
		if got := be.Store.Stats().TotalPoints(); got != uint64(delivered) {
			t.Fatalf("store holds %d points, border router handed off %d", got, delivered)
		}
		// After stop the feed is silent.
		e.RunFor(30 * time.Second)
		if feed.Sent() != sent {
			t.Fatalf("feed kept sending after stop: %d -> %d", sent, feed.Sent())
		}
	})
}

func TestBackendFeedDeterministic(t *testing.T) {
	for _, k := range engineKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			a, fa := feedAndSettle(t, k.build(gridStack(16, Profile{})))
			b, fb := feedAndSettle(t, k.build(gridStack(16, Profile{})))
			if fa.Sent() != fb.Sent() || a.Delivered() != b.Delivered() {
				t.Fatalf("same seed, different traffic: %d/%d vs %d/%d", a.Delivered(), fa.Sent(), b.Delivered(), fb.Sent())
			}
			da, db := replicaDigests(a.Store), replicaDigests(b.Store)
			for i := range da {
				if da[i] != db[i] {
					t.Fatalf("same seed, replica %d digests differ: %x vs %x", i, da[i], db[i])
				}
			}
		})
	}
}

// TestBackendObserveIsInline pins the property F1's latency column
// rests on: a subscriber runs inside the Publish call, at the same
// virtual instant, exactly once per Publish — including across the
// gateway's every-8th-confirmable notifications.
func TestBackendObserveIsInline(t *testing.T) {
	d := smallGrid(4, Profile{})
	be := d.AttachBackend(store.ShardedConfig{})
	defer be.Close()
	const series = "obs/press-1/temp"
	var got []float64
	var at []time.Duration
	be.Observe(series, func(v float64) {
		got = append(got, v)
		at = append(at, d.K.Now())
	})
	d.K.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("subscriber called %d times before any publish", len(got))
	}
	for i := 1; i <= 24; i++ {
		d.K.RunFor(time.Second)
		v := 36.5 + float64(i)
		be.Publish(series, store.Point{T: d.K.Now(), V: v})
		if len(got) != i || got[i-1] != v || at[i-1] != d.K.Now() {
			t.Fatalf("publish %d at %v: subscriber saw %v at %v", i, d.K.Now(), got, at)
		}
		be.Publish("obs/press-1/rpm", store.Point{T: d.K.Now(), V: 900}) // another series: not ours
	}
	d.K.RunFor(time.Minute) // no retransmission delivers anything twice
	if len(got) != 24 {
		t.Fatalf("subscriber called %d times for 24 publishes", len(got))
	}
	be.Flush()
	stored := -1
	be.Store.Range(series, 0, d.K.Now(), func(pts []store.Point, err error) {
		if err != nil {
			t.Fatal(err)
		}
		stored = len(pts)
	})
	if stored != 24 {
		t.Fatalf("store holds %d of 24 published points", stored)
	}
}

// TestBackendGatewayLinkCanBePartitioned: the gateway–application link
// rides the same fabric type as the store's replica links, so it can be
// cut the same way. Cut, observers hear nothing while the store keeps
// acking; healed, the next publish reaches them again.
func TestBackendGatewayLinkCanBePartitioned(t *testing.T) {
	d := smallGrid(4, Profile{})
	be := d.AttachBackend(store.ShardedConfig{})
	defer be.Close()
	const series = "obs/press-1/temp"
	var got []float64
	be.Observe(series, func(v float64) { got = append(got, v) })
	publish := func(v float64) {
		d.K.RunFor(time.Second)
		be.Publish(series, store.Point{T: d.K.Now(), V: v})
		be.Flush()
	}
	publish(1)
	if len(got) != 1 {
		t.Fatalf("before the cut: observer saw %v", got)
	}

	be.net.SetPartition([]string{appAddr})
	for v := 2.0; v <= 9; v++ { // includes the gateway's every-8th confirmable push
		publish(v)
	}
	if len(got) != 1 || be.net.Dropped == 0 {
		t.Fatalf("during the cut: observer saw %v, link dropped %d", got, be.net.Dropped)
	}
	if acked, failed := be.Batches(); acked != 9 || failed != 0 {
		t.Fatalf("store batches acked=%d failed=%d during a gateway-link cut, want 9/0", acked, failed)
	}

	// Healed, the link carries the next push (and may first carry the
	// retransmission of a confirmable one sent into the cut).
	be.net.Heal()
	publish(10)
	if got[len(got)-1] != 10 {
		t.Fatalf("after heal: observer saw %v, want the last value to be 10", got)
	}
}

func TestBackendSurvivesBorderRouterReboot(t *testing.T) {
	d := smallGrid(9, Profile{})
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	be := d.AttachBackend(backendStore)
	defer be.Close()
	defer be.Feed(5*time.Second, 5*time.Second).Stop()
	d.K.RunFor(30 * time.Second)
	if be.Delivered() == 0 {
		t.Fatal("nothing delivered before the crash; premise broken")
	}
	d.Crash(0)
	d.K.RunFor(2 * time.Second) // frames already in the air
	down := be.Delivered()
	d.K.RunFor(time.Minute)
	if be.Delivered() != down {
		t.Fatalf("crashed border router handed off %d readings", be.Delivered()-down)
	}
	d.Recover(0)
	d.RunUntilConverged(3 * time.Minute)
	d.K.RunFor(time.Minute)
	if be.Delivered() == down {
		t.Fatal("no hand-off after the border router recovered")
	}
}

func TestIngestHandOffValidates(t *testing.T) {
	d := smallGrid(4, Profile{})
	be := d.AttachBackend(store.ShardedConfig{})
	defer be.Close()
	for _, tc := range []struct {
		name    string
		src     radio.NodeID
		payload []byte
	}{
		{"wrong tag", 3, []byte{0x17, 7}},
		{"short", 3, []byte{readingTag}},
		{"long", 3, []byte{readingTag, 7, 0}},
		{"from the root", 0, []byte{readingTag, 7}},
		{"from outside the fleet", radio.NodeID(len(d.Nodes)), []byte{readingTag, 7}},
		{"negative source", -1, []byte{readingTag, 7}},
	} {
		be.handOff(tc.src, tc.payload)
		if be.Delivered() != 0 {
			t.Fatalf("%s: counted as delivered", tc.name)
		}
	}
	be.handOff(3, []byte{readingTag, 7})
	if be.Delivered() != 1 {
		t.Fatalf("well-formed reading not counted: %d", be.Delivered())
	}
	be.Flush()
	if n := be.Store.Stats().TotalPoints(); n != 1 {
		t.Fatalf("store holds %d points after one good and six bad readings", n)
	}
	be.Store.Range("node/3/reading", 0, time.Hour, func(pts []store.Point, err error) {
		if err != nil || len(pts) != 1 || pts[0].V != 7 {
			t.Fatalf("node/3/reading = %v, %v", pts, err)
		}
	})
}

// FuzzIngestHandOff feeds the border router's peer-facing handler
// arbitrary sources and payloads: it must never panic, and it counts a
// reading only when it is well-formed and from a fleet member.
func FuzzIngestHandOff(f *testing.F) {
	f.Add(3, []byte{readingTag, 7})
	f.Add(0, []byte{readingTag, 7})
	f.Add(4, []byte{readingTag, 7})
	f.Add(-1, []byte{readingTag})
	f.Add(1<<40, []byte{})
	f.Add(2, []byte{0x17, 7, 9})
	d := smallGrid(4, Profile{})
	be := d.AttachBackend(store.ShardedConfig{})
	f.Cleanup(be.Close)
	f.Fuzz(func(t *testing.T, src int, payload []byte) {
		before := be.Delivered()
		be.handOff(radio.NodeID(src), payload)
		wellFormed := len(payload) == 2 && payload[0] == readingTag && src > 0 && src < len(d.Nodes)
		if got := be.Delivered() - before; (got == 1) != wellFormed || got > 1 {
			t.Fatalf("src=%d payload=%x: delivered moved by %d, well-formed=%v", src, payload, got, wellFormed)
		}
	})
}
