package rpl

import (
	"testing"
	"testing/quick"
	"time"

	"iiotds/internal/link"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/metrics"
	"iiotds/internal/radio"
	"iiotds/internal/sim"
	"iiotds/internal/trace"
)

// testNet is a small emulated mesh with node 0 as DODAG root.
type testNet struct {
	k       *sim.Kernel
	m       *radio.Medium
	macs    []*mac.CSMA
	links   []*link.Link
	routers []*Router
	reg     *metrics.Registry
}

func fastConfig() Config {
	return Config{
		Trickle:             TrickleConfig{Imin: 500 * time.Millisecond, Doublings: 4, K: 3},
		DAOInterval:         5 * time.Second,
		ParentProbeInterval: 5 * time.Second,
	}
}

func buildNet(t *testing.T, top radio.Topology, seed int64) *testNet {
	t.Helper()
	k := sim.New(seed)
	reg := metrics.NewRegistry()
	m := radio.NewMedium(k, radio.DefaultParams(), reg)
	n := len(top)
	net := &testNet{k: k, m: m, reg: reg,
		macs:    make([]*mac.CSMA, n),
		links:   make([]*link.Link, n),
		routers: make([]*Router, n),
	}
	for i := 0; i < n; i++ {
		id := radio.NodeID(i)
		idx := i
		m.Attach(id, top[i], radio.ReceiverFunc(func(f radio.Frame) {
			net.macs[idx].RadioReceive(f)
		}))
		net.macs[i] = mac.NewCSMA(m, id, mac.CSMAConfig{})
		net.macs[i].Start()
		net.links[i] = link.New(id, net.macs[i])
		net.routers[i] = NewRouter(k, net.links[i], i == 0, 0, fastConfig(), reg)
	}
	for _, r := range net.routers {
		r.Start()
	}
	return net
}

// kill crashes node i completely.
func (n *testNet) kill(i int) {
	n.routers[i].Stop()
	n.macs[i].Stop()
	n.m.SetDown(radio.NodeID(i), true)
}

func (n *testNet) allJoined() bool {
	for _, r := range n.routers {
		if j, _ := r.Joined(); !j {
			return false
		}
		if r.Partitioned() {
			return false
		}
	}
	return true
}

func TestDODAGFormation(t *testing.T) {
	// 5x5 grid, 15 m spacing: multi-hop but well connected.
	net := buildNet(t, radio.GridTopology(25, 15), 42)
	net.k.RunUntil(60 * time.Second)
	if !net.allJoined() {
		for i, r := range net.routers {
			t.Logf("node %d: rank=%d parent=%d", i, r.Rank(), r.Parent())
		}
		t.Fatal("not all nodes joined the DODAG")
	}
	if net.routers[0].Rank() != 256 {
		t.Fatalf("root rank = %d, want 256", net.routers[0].Rank())
	}
	// The far corner (node 24) must be strictly deeper than a root
	// neighbor (node 1).
	if net.routers[24].Rank() <= net.routers[1].Rank() {
		t.Fatalf("corner rank %d not deeper than near-root rank %d",
			net.routers[24].Rank(), net.routers[1].Rank())
	}
}

func TestUpwardDelivery(t *testing.T) {
	net := buildNet(t, radio.GridTopology(16, 15), 7)
	var got []byte
	var from radio.NodeID
	net.routers[0].Handle(lowpan.ProtoRaw, func(src radio.NodeID, p []byte) {
		from, got = src, append([]byte(nil), p...)
	})
	net.k.RunUntil(30 * time.Second)
	if err := net.routers[15].SendUp(lowpan.ProtoRaw, []byte("temp=21.5")); err != nil {
		t.Fatalf("SendUp: %v", err)
	}
	net.k.RunFor(10 * time.Second)
	if string(got) != "temp=21.5" || from != 15 {
		t.Fatalf("root got %q from %d", got, from)
	}
}

func TestDownwardDelivery(t *testing.T) {
	net := buildNet(t, radio.GridTopology(16, 15), 8)
	var got []byte
	net.routers[15].Handle(lowpan.ProtoRaw, func(src radio.NodeID, p []byte) {
		got = append([]byte(nil), p...)
	})
	// Wait for DAOs to install storing-mode routes at the root.
	net.k.RunUntil(40 * time.Second)
	if net.routers[0].RouteCount() == 0 {
		t.Fatal("root learned no downward routes")
	}
	if err := net.routers[0].SendTo(15, lowpan.ProtoRaw, []byte("actuate:on")); err != nil {
		t.Fatalf("SendTo: %v", err)
	}
	net.k.RunFor(10 * time.Second)
	if string(got) != "actuate:on" {
		t.Fatalf("leaf got %q", got)
	}
}

func TestLargePayloadFragmentsEndToEnd(t *testing.T) {
	net := buildNet(t, radio.GridTopology(9, 15), 9)
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var got []byte
	net.routers[0].Handle(lowpan.ProtoRaw, func(_ radio.NodeID, p []byte) {
		got = append([]byte(nil), p...)
	})
	net.k.RunUntil(30 * time.Second)
	if err := net.routers[8].SendUp(lowpan.ProtoRaw, payload); err != nil {
		t.Fatal(err)
	}
	net.k.RunFor(15 * time.Second)
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestParentFailover(t *testing.T) {
	// Diamond: 0 (root) — {1,2} — 3. Node 3 must survive losing one
	// parent candidate.
	top := radio.Topology{
		{X: 0, Y: 0},   // 0 root
		{X: 15, Y: 8},  // 1
		{X: 15, Y: -8}, // 2
		{X: 30, Y: 0},  // 3: reaches 1 and 2, not 0 (30m > 20m reliable... still in gray)
	}
	net := buildNet(t, top, 10)
	// Make 3's direct gray-region link to the root useless so it must
	// route through 1 or 2.
	net.m.SetLinkPRR(0, 3, 0)
	net.m.SetLinkPRR(3, 0, 0)
	net.k.RunUntil(30 * time.Second)
	if net.routers[3].Partitioned() {
		t.Fatal("node 3 did not join")
	}
	firstParent := net.routers[3].Parent()
	if firstParent != 1 && firstParent != 2 {
		t.Fatalf("node 3 parent = %d, want 1 or 2", firstParent)
	}
	net.kill(int(firstParent))
	net.k.RunFor(90 * time.Second)
	second := net.routers[3].Parent()
	if second == firstParent || second == NoParent {
		t.Fatalf("node 3 did not fail over: parent=%d", second)
	}
	// Traffic still flows after failover.
	got := false
	net.routers[0].Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) { got = true })
	if err := net.routers[3].SendUp(lowpan.ProtoRaw, []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.k.RunFor(10 * time.Second)
	if !got {
		t.Fatal("no delivery after failover")
	}
}

func TestRootDeathPartitionsNetwork(t *testing.T) {
	net := buildNet(t, radio.LineTopology(4, 15), 11)
	net.k.RunUntil(30 * time.Second)
	if !net.allJoined() {
		t.Fatal("network did not converge")
	}
	net.kill(0)
	net.k.RunFor(3 * time.Minute)
	for i := 1; i < 4; i++ {
		if !net.routers[i].Partitioned() {
			t.Fatalf("node %d still thinks it has a path after root death (parent=%d rank=%d)",
				i, net.routers[i].Parent(), net.routers[i].Rank())
		}
	}
}

func TestRNFDCollectiveDetection(t *testing.T) {
	net := buildNet(t, radio.GridTopology(16, 15), 12)
	for i := 1; i < 16; i++ {
		net.routers[i].AttachRNFD(RNFDConfig{SuspectTimeout: 20 * time.Second, Quorum: 2})
	}
	net.k.RunUntil(30 * time.Second)
	killAt := net.k.Now()
	net.kill(0)
	net.k.RunFor(3 * time.Minute)
	detected := 0
	var worst sim.Time
	for i := 1; i < 16; i++ {
		if net.routers[i].RootDead() {
			detected++
			if d, at := net.routers[i].rnfd.Dead(); d && at-killAt > worst {
				worst = at - killAt
			}
		}
	}
	if detected < 12 {
		t.Fatalf("only %d/15 nodes learned of root death", detected)
	}
	if worst > 2*time.Minute {
		t.Fatalf("slowest detection %v too slow", worst)
	}
}

func TestRNFDNoFalsePositiveWhileRootAlive(t *testing.T) {
	net := buildNet(t, radio.GridTopology(9, 15), 13)
	for i := 1; i < 9; i++ {
		net.routers[i].AttachRNFD(RNFDConfig{SuspectTimeout: 30 * time.Second, Quorum: 2})
	}
	net.k.RunUntil(5 * time.Minute)
	for i := 1; i < 9; i++ {
		if net.routers[i].RootDead() {
			t.Fatalf("node %d falsely declared the live root dead", i)
		}
	}
}

func TestGlobalRepairBumpsVersionEverywhere(t *testing.T) {
	net := buildNet(t, radio.GridTopology(9, 15), 14)
	net.k.RunUntil(30 * time.Second)
	net.routers[0].GlobalRepair()
	net.k.RunFor(60 * time.Second)
	for i, r := range net.routers {
		if r.Version() != 2 {
			t.Fatalf("node %d version = %d, want 2", i, r.Version())
		}
		if r.Partitioned() {
			t.Fatalf("node %d did not rejoin after global repair", i)
		}
	}
}

func TestHopLimitDropsLoopedTraffic(t *testing.T) {
	top := radio.LineTopology(3, 15)
	k := sim.New(15)
	reg := metrics.NewRegistry()
	m := radio.NewMedium(k, radio.DefaultParams(), reg)
	macs := make([]*mac.CSMA, 3)
	links := make([]*link.Link, 3)
	routers := make([]*Router, 3)
	cfg := fastConfig()
	cfg.HopLimit = 1 // dies at the first forwarder
	for i := 0; i < 3; i++ {
		id := radio.NodeID(i)
		idx := i
		m.Attach(id, top[i], radio.ReceiverFunc(func(f radio.Frame) { macs[idx].RadioReceive(f) }))
		macs[i] = mac.NewCSMA(m, id, mac.CSMAConfig{})
		macs[i].Start()
		links[i] = link.New(id, macs[i])
		routers[i] = NewRouter(k, links[i], i == 0, 0, cfg, reg)
		routers[i].Start()
	}
	got := false
	routers[0].Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) { got = true })
	k.RunUntil(30 * time.Second)
	if routers[2].Parent() != 1 {
		t.Skipf("node 2 joined via %d, need 2-hop path", routers[2].Parent())
	}
	if err := routers[2].SendUp(lowpan.ProtoRaw, []byte("x")); err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * time.Second)
	if got {
		t.Fatal("datagram with hop limit 1 crossed 2 hops")
	}
	if reg.Counter("rpl.hoplimit_drops").Value() == 0 {
		t.Fatal("hop-limit drop not counted")
	}
}

func TestSendWithNoRouteFails(t *testing.T) {
	k := sim.New(16)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var mc *mac.CSMA
	m.Attach(5, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { mc.RadioReceive(f) }))
	mc = mac.NewCSMA(m, 5, mac.CSMAConfig{})
	mc.Start()
	r := NewRouter(k, link.New(5, mc), false, 0, fastConfig(), nil)
	r.Start()
	if err := r.SendUp(lowpan.ProtoRaw, []byte("x")); err == nil {
		t.Fatal("detached node accepted an upward send")
	}
}

func TestLocalDeliveryShortCircuits(t *testing.T) {
	k := sim.New(17)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var mc *mac.CSMA
	m.Attach(0, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { mc.RadioReceive(f) }))
	mc = mac.NewCSMA(m, 0, mac.CSMAConfig{})
	mc.Start()
	r := NewRouter(k, link.New(0, mc), true, 0, fastConfig(), nil)
	r.Start()
	var got []byte
	r.Handle(lowpan.ProtoRaw, func(_ radio.NodeID, p []byte) { got = p })
	if err := r.SendTo(0, lowpan.ProtoRaw, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "self" {
		t.Fatalf("self delivery got %q", got)
	}
}

func TestMessageCodecsRoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint8, rank uint16, root uint16) bool {
		d, err := decodeDIO(dio{Version: v, Rank: rank, Root: radio.NodeID(root)}.encode())
		return err == nil && d.Version == v && d.Rank == rank && d.Root == radio.NodeID(root)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(target uint16, seq uint16) bool {
		d, err := decodeDAO(dao{Target: radio.NodeID(target), Seq: seq}.encode())
		return err == nil && d.Target == radio.NodeID(target) && d.Seq == seq
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s uint16, e uint8) bool {
		d, err := decodeSuspect(suspect{Sentinel: radio.NodeID(s), Epoch: e}.encode())
		return err == nil && d.Sentinel == radio.NodeID(s) && d.Epoch == e
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(root uint16, e uint8) bool {
		d, err := decodeVerdict(verdict{Root: radio.NodeID(root), Epoch: e}.encode())
		return err == nil && d.Root == radio.NodeID(root) && d.Epoch == e
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMalformedControlMessagesIgnored(t *testing.T) {
	net := buildNet(t, radio.GridTopology(4, 10), 18)
	// Inject garbage control frames; the network must still converge.
	net.k.Every(time.Second, 0, func() {
		net.links[1].Broadcast(link.ProtoRouting, []byte{0xFF, 0xAA})
		net.links[1].Broadcast(link.ProtoRouting, []byte{byte(msgDIO)}) // truncated
	})
	net.k.RunUntil(40 * time.Second)
	if !net.allJoined() {
		t.Fatal("garbage control traffic prevented convergence")
	}
}

func TestRouteExpiry(t *testing.T) {
	net := buildNet(t, radio.GridTopology(4, 10), 19)
	net.k.RunUntil(30 * time.Second)
	if net.routers[0].RouteCount() == 0 {
		t.Fatal("no routes learned")
	}
	// Kill a leaf; its route must eventually expire at the root.
	net.kill(3)
	net.k.RunFor(2 * time.Minute)
	if _, ok := net.routers[0].lookupRoute(3); ok {
		t.Fatal("route to dead node did not expire")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	k := sim.New(20)
	m := radio.NewMedium(k, radio.DefaultParams(), nil)
	var mc *mac.CSMA
	m.Attach(0, radio.Position{}, radio.ReceiverFunc(func(f radio.Frame) { mc.RadioReceive(f) }))
	mc = mac.NewCSMA(m, 0, mac.CSMAConfig{})
	r := NewRouter(k, link.New(0, mc), true, 0, fastConfig(), nil)
	r.Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) {})
}

// TestRNFDVerdictVisibleInTrace pins the diagnosability contract that
// resolved the E5 open item: when RNFD declares the root dead, the
// flight recorder must hold the full evidence chain — sentinel
// qualification, local suspicion, quorum — ending in a verdict event,
// and Router.RootDead() must flip true on the nodes that emitted it.
func TestRNFDVerdictVisibleInTrace(t *testing.T) {
	net := buildNet(t, radio.GridTopology(16, 15), 14)
	// Sized to retain the whole run (~5k radio+MAC events/s on this
	// grid): the ring keeps exact per-type counts through a wrap, but
	// the per-event checks below need the verdict events themselves
	// still resident.
	rec := trace.New(1<<20, net.k.Now)
	net.m.SetRecorder(rec)
	for i, r := range net.routers {
		r.SetRecorder(rec)
		if i > 0 {
			r.AttachRNFD(RNFDConfig{SuspectTimeout: 20 * time.Second, Quorum: 2})
		}
	}
	net.k.RunUntil(30 * time.Second)
	net.kill(0)
	net.k.RunFor(2 * time.Minute)

	for _, typ := range []trace.Type{trace.RNFDSentinel, trace.RNFDSuspect, trace.RNFDVerdict} {
		if rec.Count(typ) == 0 {
			t.Errorf("no %s events in trace", typ)
		}
	}
	// Every node that emitted a verdict must report the root dead, and
	// at least one must exist.
	verdictNodes := 0
	rec.Each(trace.All(), func(e trace.Event) {
		if e.Type != trace.RNFDVerdict {
			return
		}
		verdictNodes++
		if !net.routers[e.Node].RootDead() {
			t.Errorf("node %d emitted a verdict but RootDead() is false", e.Node)
		}
		if e.A != 0 {
			t.Errorf("verdict names root %d, want 0", e.A)
		}
	})
	if verdictNodes == 0 {
		t.Fatal("no RNFD verdict events recorded")
	}
}
