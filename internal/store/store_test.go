package store

import (
	"reflect"
	"testing"
	"time"

	"iiotds/internal/clock"
	"iiotds/internal/gossip"
	"iiotds/internal/sim"
)

// --- replicated KV ---

type cluster struct {
	k        *sim.Kernel
	net      *gossip.Network
	replicas []*Replica
}

func newCluster(t *testing.T, mode Mode, n int) *cluster {
	t.Helper()
	k := sim.New(3)
	net := gossip.NewNetwork()
	c := &cluster{k: k, net: net}
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		r := NewReplica(net.Attach(name), clock.Kernel{K: k}, ReplicaConfig{
			Mode:        mode,
			ClusterSize: n,
			Gossip:      gossip.Config{Interval: time.Second, Seed: int64(i + 1)},
		})
		c.replicas = append(c.replicas, r)
	}
	return c
}

func TestCPPutGetQuorum(t *testing.T) {
	c := newCluster(t, ModeCP, 3)
	var putErr error = errNotCalled
	c.replicas[0].Put("k", []byte("v1"), func(err error) { putErr = err })
	c.k.RunFor(time.Second)
	if putErr != nil {
		t.Fatalf("Put err = %v", putErr)
	}
	var got []byte
	var getErr error = errNotCalled
	c.replicas[1].Get("k", func(val []byte, err error) { got, getErr = val, err })
	c.k.RunFor(time.Second)
	if getErr != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, getErr)
	}
}

var errNotCalled = ErrUnavailable // sentinel reused; distinct value not needed

func TestCPMinorityPartitionUnavailable(t *testing.T) {
	c := newCluster(t, ModeCP, 5)
	// a,b in minority; c,d,e in majority.
	c.net.SetPartition([]string{"a", "b"}, []string{"c", "d", "e"})
	var minorityErr, majorityErr error
	called := 0
	c.replicas[0].Put("k", []byte("x"), func(err error) { minorityErr = err; called++ })
	c.replicas[2].Put("k", []byte("y"), func(err error) { majorityErr = err; called++ })
	c.k.RunFor(time.Minute)
	if called != 2 {
		t.Fatalf("callbacks = %d", called)
	}
	if minorityErr != ErrUnavailable {
		t.Fatalf("minority Put err = %v, want ErrUnavailable", minorityErr)
	}
	if majorityErr != nil {
		t.Fatalf("majority Put err = %v, want nil", majorityErr)
	}
	_, failed := c.replicas[0].Ops()
	ok, _ := c.replicas[2].Ops()
	if failed != 1 || ok != 1 {
		t.Fatalf("stats: failed=%d ok=%d", failed, ok)
	}
}

func TestCPReadReturnsNewestVersion(t *testing.T) {
	c := newCluster(t, ModeCP, 3)
	c.replicas[0].Put("k", []byte("v1"), nil)
	c.k.RunFor(time.Second)
	c.replicas[1].Put("k", []byte("v2"), nil)
	c.k.RunFor(time.Second)
	var got []byte
	c.replicas[2].Get("k", func(val []byte, err error) { got = val })
	c.k.RunFor(time.Second)
	if string(got) != "v2" {
		t.Fatalf("Get = %q, want v2", got)
	}
}

func TestAPAlwaysAvailableUnderPartition(t *testing.T) {
	c := newCluster(t, ModeAP, 4)
	c.net.SetPartition([]string{"a", "b"}, []string{"c", "d"})
	okPuts := 0
	for i, r := range c.replicas {
		r.Put("k", []byte{byte('0' + i)}, func(err error) {
			if err == nil {
				okPuts++
			}
		})
	}
	c.k.RunFor(10 * time.Second)
	if okPuts != 4 {
		t.Fatalf("AP puts ok = %d/4 under partition", okPuts)
	}
	// Reads succeed locally too.
	reads := 0
	for _, r := range c.replicas {
		r.Get("k", func(val []byte, err error) {
			if err == nil {
				reads++
			}
		})
	}
	c.k.RunFor(time.Second)
	if reads != 4 {
		t.Fatalf("AP reads ok = %d/4", reads)
	}
}

func TestAPConvergesAfterHeal(t *testing.T) {
	c := newCluster(t, ModeAP, 4)
	c.net.SetPartition([]string{"a", "b"}, []string{"c", "d"})
	c.k.RunFor(time.Second)
	c.replicas[0].Put("k", []byte("left"), nil)
	c.k.RunFor(2 * time.Second)
	c.replicas[2].Put("k", []byte("right"), nil) // later write wins (LWW)
	c.k.RunFor(10 * time.Second)
	c.net.Heal()
	c.k.RunFor(30 * time.Second)
	want := c.replicas[0].LocalValue("k")
	if string(want) != "right" {
		t.Fatalf("converged value = %q, want right (later write)", want)
	}
	for i, r := range c.replicas {
		if got := r.LocalValue("k"); string(got) != string(want) {
			t.Fatalf("replica %d = %q, want %q", i, got, want)
		}
	}
}

func TestAPGetMissingKey(t *testing.T) {
	c := newCluster(t, ModeAP, 2)
	var got []byte = []byte("sentinel")
	c.replicas[0].Get("nope", func(val []byte, err error) { got = val })
	c.k.RunFor(time.Second)
	if got != nil {
		t.Fatalf("missing key = %q, want nil", got)
	}
}

func TestSingleReplicaCPWorksAlone(t *testing.T) {
	c := newCluster(t, ModeCP, 1)
	var err error = errNotCalled
	c.replicas[0].Put("k", []byte("v"), func(e error) { err = e })
	c.k.RunFor(time.Second)
	if err != nil {
		t.Fatalf("solo Put err = %v", err)
	}
	var got []byte
	c.replicas[0].Get("k", func(val []byte, e error) { got = val })
	c.k.RunFor(time.Second)
	if string(got) != "v" {
		t.Fatalf("solo Get = %q", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeCP.String() != "CP" || ModeAP.String() != "AP" {
		t.Fatal("mode strings wrong")
	}
}

// TestReplicaReadSurfaceModeParity: what a replica holds is readable
// the same way whichever mode holds it. The same unpartitioned script
// on a 3-replica AP group and a 3-replica CP group leaves every replica
// with the same series names, ranges and point counts, and each group
// with one digest.
// TestPutKeepsNoCallerBuffer: an acked Put holds its own copy of the
// value in both modes, so a caller that reuses its buffer afterwards
// rewrites nothing a replica stores or later ships.
func TestPutKeepsNoCallerBuffer(t *testing.T) {
	for _, mode := range []Mode{ModeAP, ModeCP} {
		c := newCluster(t, mode, 3)
		buf := []byte("v1")
		var putErr error = errNotCalled
		c.replicas[0].Put("k", buf, func(err error) { putErr = err })
		c.k.RunFor(time.Second)
		if putErr != nil {
			t.Fatalf("%s: Put err = %v", mode, putErr)
		}
		copy(buf, "XX")
		c.k.RunFor(10 * time.Second) // AP anti-entropy ships the register
		for i, r := range c.replicas {
			if got := r.LocalValue("k"); string(got) != "v1" {
				t.Fatalf("%s: replica %d holds %q after the caller reused its buffer, want \"v1\"", mode, i, got)
			}
		}
	}
}

func TestReplicaReadSurfaceModeParity(t *testing.T) {
	ap, cp := newCluster(t, ModeAP, 3), newCluster(t, ModeCP, 3)
	for _, c := range []*cluster{ap, cp} {
		coord := c.replicas[0] // CP appends have one coordinator; AP does not care
		for step := 0; step < 40; step++ {
			tm := time.Duration(step) * time.Second
			series := []string{"plant/temp", "plant/flow", "yard/level"}[step%3]
			coord.AppendPoints(series, []Point{{T: tm, V: float64(step)}, {T: tm + time.Millisecond, V: -float64(step)}}, nil)
			c.k.RunFor(time.Second)
		}
		c.k.RunFor(30 * time.Second) // AP anti-entropy settles
	}
	for i := range ap.replicas {
		a, c := ap.replicas[i], cp.replicas[i]
		names := a.SeriesNames()
		if !reflect.DeepEqual(names, c.SeriesNames()) || len(names) != 3 {
			t.Fatalf("replica %d: SeriesNames AP %v != CP %v", i, names, c.SeriesNames())
		}
		for _, name := range names {
			got, want := a.LocalSeriesRange(name, minTime, maxTime), c.LocalSeriesRange(name, minTime, maxTime)
			if !reflect.DeepEqual(got, want) || len(got) == 0 {
				t.Fatalf("replica %d: LocalSeriesRange(%s) AP %v != CP %v", i, name, got, want)
			}
		}
		if na, nc := a.SeriesStats().Points, c.SeriesStats().Points; na != nc || na != 80 {
			t.Fatalf("replica %d: SeriesStats().Points AP %d, CP %d, want 80", i, na, nc)
		}
		if a.LocalSeriesRange("nope", minTime, maxTime) != nil || c.LocalSeriesRange("nope", minTime, maxTime) != nil {
			t.Fatalf("replica %d: an unknown series has points", i)
		}
	}
	for _, c := range []*cluster{ap, cp} {
		if !shardConverged(c.replicas) {
			t.Fatalf("%s group: replicas disagree on SeriesDigest", c.replicas[0].Mode())
		}
	}
}
