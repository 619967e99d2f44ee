package store

import (
	"testing"
	"time"
)

// TestCPQuorumRound drives the one quorum round through each of the
// four operations and each way a round can end. After every row the
// pending table is empty and the tally equals the callbacks that fired.
func TestCPQuorumRound(t *testing.T) {
	pts := []Point{{T: time.Second, V: 1}, {T: 2 * time.Second, V: 2}}
	// An op issues itself on r and reports (did it carry an answer, err).
	ops := []struct {
		name  string
		reply byte // what a peer answers this operation's request with
		run   func(r *Replica, done func(answer bool, err error))
	}{
		{"Put", kindWriteAck, func(r *Replica, done func(bool, error)) {
			r.Put("k", []byte("v2"), func(err error) { done(false, err) })
		}},
		{"Get", kindReadReply, func(r *Replica, done func(bool, error)) {
			r.Get("k", func(val []byte, err error) { done(val != nil, err) })
		}},
		{"AppendPoints", kindAppendAck, func(r *Replica, done func(bool, error)) {
			r.AppendPoints("s", pts, func(err error) { done(false, err) })
		}},
		{"RangeSeries", kindRangeReply, func(r *Replica, done func(bool, error)) {
			r.RangeSeries("s", minTime, maxTime, func(pts []Point, err error) { done(pts != nil, err) })
		}},
	}
	isRead := func(name string) bool { return name == "Get" || name == "RangeSeries" }

	// Each ending gets a seeded cluster (so reads have something to
	// lose), issues the op on replica a, and says what must have
	// happened by the time it returns.
	endings := []struct {
		name     string
		replicas int
		cut      bool // a is partitioned away from its peers
		// drive runs after the op was issued; reqID names its round.
		drive      func(t *testing.T, c *cluster, cp *cpState, reply byte, reqID uint64, calls *int)
		wantErr    error
		wantAnswer bool // for reads; writes never carry one
	}{
		{name: "single replica completes inline", replicas: 1,
			drive: func(t *testing.T, c *cluster, cp *cpState, _ byte, _ uint64, calls *int) {
				if *calls != 1 {
					t.Fatalf("callbacks before the kernel ran = %d, want 1", *calls)
				}
				c.k.RunFor(10 * time.Second) // and no timeout was armed
			},
			wantAnswer: true},
		{name: "quorum reached", replicas: 3,
			drive: func(t *testing.T, c *cluster, cp *cpState, _ byte, _ uint64, calls *int) {
				c.k.RunFor(10 * time.Second) // past QuorumTimeout: the arm was cancelled
			},
			wantAnswer: true},
		{name: "quorum lost", replicas: 3, cut: true,
			drive: func(t *testing.T, c *cluster, cp *cpState, _ byte, _ uint64, calls *int) {
				c.k.RunFor(time.Second)
				if *calls != 0 {
					t.Fatalf("completed before QuorumTimeout without a quorum")
				}
				c.k.RunFor(9 * time.Second)
			},
			wantErr: ErrUnavailable},
		{name: "late ack after the timeout", replicas: 3, cut: true,
			drive: func(t *testing.T, c *cluster, cp *cpState, reply byte, reqID uint64, calls *int) {
				c.k.RunFor(10 * time.Second)
				for _, peer := range []string{"b", "c"} {
					deliver(t, c.replicas[0], peer, &rpc{Kind: reply, ReqID: reqID, Key: "k", Ver: 9, Val: []byte("late"), OK: true})
				}
			},
			wantErr: ErrUnavailable},
		{name: "ack for an unknown ReqID", replicas: 3, cut: true,
			drive: func(t *testing.T, c *cluster, cp *cpState, reply byte, reqID uint64, calls *int) {
				for _, peer := range []string{"b", "c"} {
					deliver(t, c.replicas[0], peer, &rpc{Kind: reply, ReqID: reqID + 100, Key: "k", Ver: 9, OK: true})
				}
				if *calls != 0 || pendingRounds(cp) != 1 {
					t.Fatalf("a stranger's ack touched the round: callbacks=%d pending=%d", *calls, pendingRounds(cp))
				}
				c.k.RunFor(10 * time.Second)
			},
			wantErr: ErrUnavailable},
	}

	for _, end := range endings {
		for _, op := range ops {
			t.Run(op.name+"/"+end.name, func(t *testing.T) {
				c := newCluster(t, ModeCP, end.replicas)
				a := c.replicas[0]
				cp := a.state.(*cpState)
				a.Put("k", []byte("v1"), nil)
				a.AppendPoints("s", []Point{{T: 0, V: 0}}, nil)
				c.k.RunFor(time.Second)
				if ok, failed := a.Ops(); ok != 2 || failed != 0 || pendingRounds(cp) != 0 {
					t.Fatalf("seeding: ok=%d failed=%d pending=%d", ok, failed, pendingRounds(cp))
				}
				if end.cut {
					c.net.SetPartition([]string{"a"}, []string{"b", "c"})
				}

				calls, answer, err := 0, false, error(nil)
				op.run(a, func(ans bool, e error) { calls++; answer, err = ans, e })
				end.drive(t, c, cp, op.reply, cp.nextReq, &calls)

				if calls != 1 {
					t.Fatalf("callback fired %d times, want exactly once", calls)
				}
				if err != end.wantErr {
					t.Fatalf("err = %v, want %v", err, end.wantErr)
				}
				if want := end.wantAnswer && isRead(op.name); answer != want {
					t.Fatalf("carried an answer = %v, want %v", answer, want)
				}
				wantOK, wantFailed := 3, 0
				if end.wantErr != nil {
					wantOK, wantFailed = 2, 1
				}
				if ok, failed := a.Ops(); ok != wantOK || failed != wantFailed {
					t.Fatalf("Ops() = %d ok, %d failed; want %d, %d", ok, failed, wantOK, wantFailed)
				}
				if n := pendingRounds(cp); n != 0 {
					t.Fatalf("%d rounds left pending", n)
				}
			})
		}
	}
}

func pendingRounds(cp *cpState) int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.pending)
}

// deliver hands r a frame as if peer had sent it, whatever the fabric's
// partitions say.
func deliver(t *testing.T, r *Replica, peer string, m *rpc) {
	t.Helper()
	data, release, err := marshalRPC(m)
	if err != nil {
		t.Fatal(err)
	}
	r.state.(*cpState).onMessage(r, peer, data)
	release()
}

// TestCPRepairKeepsFarStamps: sync, repair and the digest read a whole
// series, so a point stamped beyond any window a range could name
// still counts against a replica that lacks it and still reaches it.
func TestCPRepairKeepsFarStamps(t *testing.T) {
	s, k := newSharded(t, 1, 3, ModeCP)
	const far = time.Duration(1<<62 + 5)
	held := func(want int) {
		t.Helper()
		for i, r := range s.Shard(0).Replicas {
			if n := r.SeriesStats().Retained; n != want {
				t.Fatalf("replica %d holds %d points, want %d", i, n, want)
			}
		}
		if !s.Converged() {
			t.Fatal("replicas holding the same points are not converged")
		}
	}
	s.Ingest("s", []Point{{T: time.Second, V: 1}}, nil)
	k.RunFor(time.Minute)
	held(1)

	s.PartitionReplica(2)
	s.Ingest("s", []Point{{T: far, V: 2}}, nil)
	k.RunFor(time.Minute)
	if s.Converged() {
		t.Fatal("a replica missing the far point counts as converged")
	}
	s.Heal()
	s.Repair()
	k.RunFor(time.Minute)
	held(2)

	// A version gap on the next append takes the sync path instead.
	s.PartitionReplica(2)
	s.Ingest("s", []Point{{T: far + 1, V: 3}}, nil)
	k.RunFor(time.Minute)
	s.Heal()
	s.Ingest("s", []Point{{T: 2 * time.Second, V: 4}}, nil)
	k.RunFor(time.Minute)
	held(4)
}
