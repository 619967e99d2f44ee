package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"iiotds/internal/agg"
	"iiotds/internal/clock"
	"iiotds/internal/coap"
	"iiotds/internal/fault"
	"iiotds/internal/lowpan"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
)

// uniformStack describes a one-class fleet: p, as DefaultProfile, bound
// to every position.
func uniformStack(seed int64, pos radio.Topology, p Profile) Stack {
	p.Name = DefaultProfile
	return Stack{Seed: seed, Profiles: []Profile{p}, Topology: Uniform(DefaultProfile, pos)}
}

func smallGrid(n int, p Profile) *Deployment {
	return NewStack(uniformStack(11, radio.GridTopology(n, 15), p))
}

func TestAggregationQueryOverDeployment(t *testing.T) {
	d := smallGrid(9, Profile{})
	for i := 1; i < 9; i++ {
		i := i
		d.Nodes[i].SetSampler(func(attr string) (float64, bool) {
			if attr != "temp" {
				return 0, false
			}
			return 20 + float64(i), true
		})
	}
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	var results []agg.Result
	d.Root().Agg.OnResult = func(r agg.Result) { results = append(results, r) }
	d.Root().Agg.RunQuery(agg.Query{ID: 1, Fn: agg.Avg, Attr: "temp", Epoch: 10 * time.Second, MaxDepth: 6})
	d.K.RunFor(2 * time.Minute)
	if len(results) < 3 {
		t.Fatalf("only %d epochs reported", len(results))
	}
	// Average of 21..28 = 24.5. Individual epochs may miss a straggler
	// record (TAG's smearing), so check the best epoch is complete and
	// exact, and that coverage is high overall.
	var best agg.Result
	var covered float64
	for _, r := range results {
		if r.Count > best.Count {
			best = r
		}
		covered += float64(r.Count)
	}
	if best.Count != 8 {
		t.Fatalf("best epoch count = %d, want 8", best.Count)
	}
	if best.Value < 24 || best.Value > 25 {
		t.Fatalf("avg = %v, want 24.5", best.Value)
	}
	if covered/float64(8*len(results)) < 0.7 {
		t.Fatalf("epoch coverage too low: %v records over %d epochs", covered, len(results))
	}
}

func TestCoAPOverMesh(t *testing.T) {
	d := smallGrid(9, Profile{WithCoAP: true})
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	// Node 8 (far corner) serves a sensor resource; the root reads it.
	d.Nodes[8].Server.Resource("sensors/temp").Get(func(from string, req *coap.Message) *coap.Message {
		return coap.TextResponse("23.75")
	})
	var got string
	var gotErr error
	done := false
	d.Root().CoAP.Get(d.Nodes[8].Addr(), "sensors/temp", func(m *coap.Message, err error) {
		done = true
		gotErr = err
		if err == nil {
			got = string(m.Payload)
		}
	})
	d.K.RunFor(2 * time.Minute)
	if !done {
		t.Fatal("no CoAP response over mesh")
	}
	if gotErr != nil || got != "23.75" {
		t.Fatalf("got %q, err %v", got, gotErr)
	}
}

// scribbleTransport enforces the coap.Transport.Send contract from the
// sender's side: the mesh gets a private copy of each datagram,
// overwritten the moment Send returns — as a sender reusing its buffer
// would — so a layer or receiver that kept the slice reads garbage.
type scribbleTransport struct{ coap.Transport }

func (s scribbleTransport) Send(addr string, data []byte) error {
	tmp := append([]byte(nil), data...)
	err := s.Transport.Send(addr, tmp)
	for i := range tmp {
		tmp[i] = 0xA5
	}
	return err
}

func TestCoAPObserveOverMesh(t *testing.T) {
	// Node 3 is built without an endpoint and given one here, wired as
	// buildNode does but over a scribbling transport: its notifications
	// cross meshTransport → Router.SendTo → lowpan.Encode, or the
	// Dst == self deliver branch, in a buffer that is garbage once Send
	// has returned.
	stack := uniformStack(11, radio.GridTopology(4, 15), Profile{WithCoAP: true})
	stack.Profiles = append(stack.Profiles, Profile{Name: "bare"})
	stack.Topology[3].Profile = "bare"
	d := NewStack(stack)
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	n := d.Nodes[3]
	tr := &meshTransport{node: n}
	n.Router.Handle(lowpan.ProtoCoAP, func(src radio.NodeID, payload []byte) {
		tr.deliver(strconv.Itoa(int(src)), payload)
	})
	n.CoAP = coap.NewConn(scribbleTransport{tr}, clock.Kernel{K: d.K}, coap.ConnConfig{Seed: 4, AckTimeout: 4 * time.Second})
	n.Server = coap.NewServer()
	n.CoAP.Serve(n.Server)

	res := n.Server.Resource("sensors/level").Observable().Get(
		func(string, *coap.Message) *coap.Message { return coap.TextResponse("0") })
	// The observers keep the messages, not copies of the payloads, so a
	// receiver aliasing the sender's buffer shows up at the end.
	var remote, local []*coap.Message
	d.Root().CoAP.Observe(n.Addr(), "sensors/level", func(m *coap.Message, err error) {
		if err == nil {
			remote = append(remote, m)
		}
	})
	n.CoAP.Observe(n.Addr(), "sensors/level", func(m *coap.Message, err error) {
		if err == nil {
			local = append(local, m)
		}
	})
	d.K.RunFor(15 * time.Second)
	res.Notify(coap.FormatText, []byte("42"))
	d.K.RunFor(15 * time.Second)
	res.Notify(coap.FormatText, []byte("43"))
	d.K.RunFor(15 * time.Second)
	for name, notes := range map[string][]*coap.Message{"remote": remote, "local": local} {
		var got []string
		for _, m := range notes {
			got = append(got, string(m.Payload))
		}
		if len(got) != 3 || got[0] != "0" || got[1] != "42" || got[2] != "43" {
			t.Fatalf("%s observer saw %q, want [0 42 43]", name, got)
		}
	}
}

func TestFaultInjectorIntegration(t *testing.T) {
	d := smallGrid(4, Profile{})
	ledger := fault.NewLedger(0)
	inj := fault.NewInjector(d.K, d.M, d, ledger)
	d.K.At(30*time.Second, func() { inj.Crash(2) })
	d.K.At(60*time.Second, func() { inj.Recover(2) })
	d.K.RunUntil(90 * time.Second)
	s := ledger.StatsOf("node-2", d.K.Now())
	if s.Failures != 1 || s.Repairs != 1 {
		t.Fatalf("ledger stats = %+v", s)
	}
	if !d.Nodes[2].Up() {
		t.Fatal("node not recovered")
	}
}

func TestRNFDIntegration(t *testing.T) {
	d := smallGrid(9, Profile{RNFD: &rpl.RNFDConfig{SuspectTimeout: 25 * time.Second, Quorum: 2}})
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	// Sentinels qualify on proven unicast history (DAOs, probes), so
	// give the network steady-state time before the failure.
	d.K.RunFor(2 * time.Minute)
	d.Crash(0)
	d.K.RunFor(3 * time.Minute)
	aware := 0
	for i := 1; i < 9; i++ {
		if d.Nodes[i].Router.RootDead() {
			aware++
		}
	}
	if aware < 6 {
		t.Fatalf("only %d/8 nodes learned of border-router death", aware)
	}
}

func TestLPLDeploymentConverges(t *testing.T) {
	d := NewStack(uniformStack(13, radio.GridTopology(9, 15),
		Profile{MAC: MACLPL, LPL: mac.LPLConfig{WakeInterval: 250 * time.Millisecond}}))
	ok, _ := d.RunUntilConverged(5 * time.Minute)
	if !ok {
		for i, n := range d.Nodes {
			t.Logf("node %d parent=%d", i, n.Router.Parent())
		}
		t.Fatal("LPL deployment did not converge")
	}
	// Steady-state radio-on fraction of a leaf must be far below
	// always-on; measure a quiet window after convergence so the join
	// phase's strobing does not dominate.
	before := d.M.Energy().Ledger(8).RadioOn()
	t0 := d.K.Now()
	d.K.RunFor(5 * time.Minute)
	frac := float64(d.M.Energy().Ledger(8).RadioOn()-before) / float64(d.K.Now()-t0)
	if frac > 0.5 {
		t.Fatalf("LPL steady-state radio-on fraction = %v", frac)
	}
}

func TestRIMACDeploymentConverges(t *testing.T) {
	d := NewStack(uniformStack(17, radio.GridTopology(9, 15),
		Profile{MAC: MACRIMAC, RIMAC: mac.RIMACConfig{BeaconInterval: 250 * time.Millisecond}}))
	ok, _ := d.RunUntilConverged(5 * time.Minute)
	if !ok {
		for i, n := range d.Nodes {
			t.Logf("node %d parent=%d", i, n.Router.Parent())
		}
		t.Fatal("RI-MAC deployment did not converge")
	}
	// Receiver-initiated rendezvous must still deliver upward traffic
	// (individual datagrams may miss a rendezvous; most must arrive).
	got := 0
	d.Root().Router.Handle(lowpan.ProtoRaw, func(radio.NodeID, []byte) { got++ })
	for i := 0; i < 5; i++ {
		i := i
		d.K.Schedule(time.Duration(i)*10*time.Second, func() {
			_ = d.Nodes[8].Router.SendUp(lowpan.ProtoRaw, []byte{byte(i)})
		})
	}
	d.K.RunFor(2 * time.Minute)
	if got < 3 {
		t.Fatalf("only %d/5 upward datagrams delivered over RI-MAC mesh", got)
	}
}

func TestEmptyTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStack(uniformStack(1, nil, Profile{}))
}

func ExampleDeployment() {
	d := NewStack(Stack{
		Seed:     1,
		Profiles: []Profile{{Name: DefaultProfile}},
		Topology: Uniform(DefaultProfile, radio.GridTopology(4, 10)),
	})
	ok, _ := d.RunUntilConverged(time.Minute)
	fmt.Println("converged:", ok)
	// Output: converged: true
}

// TestDeployedHeaderFormPinned pins which 6LoWPAN header a built stack
// puts on the air: the IPHC-style 9-byte one, and no option reaches it.
// The header sets airtime and fragment counts behind every E-table, so
// a change to it has to be a deliberate one — this constant is the line
// that moves with it.
func TestDeployedHeaderFormPinned(t *testing.T) {
	const (
		deployedHeader = 9  // src, dst, proto, hop limit, seq and a version byte
		framing        = 5  // MAC header 3 + link protocol 1 + 6LoWPAN dispatch 1
		payload        = 50 // one frame, and larger than any routing frame
		sniffer        = radio.NodeID(1000)
	)
	d := smallGrid(4, Profile{})
	if ok, _ := d.RunUntilConverged(time.Minute); !ok {
		t.Fatal("no convergence")
	}
	onAir := map[int]bool{}
	d.M.Attach(sniffer, d.M.PositionOf(1), radio.ReceiverFunc(func(f radio.Frame) {
		if f.From == 1 && f.Size > payload {
			onAir[f.Size] = true
		}
	}))
	d.M.SetListening(sniffer, true)
	if err := d.Nodes[1].Router.SendUp(lowpan.ProtoRaw, make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	d.K.RunFor(5 * time.Second)
	if want := framing + deployedHeader + payload; len(onAir) != 1 || !onAir[want] {
		t.Fatalf("node 1's %d-byte datagram went on the air as frames of size %v, want one of %d (%d framing + %d header)",
			payload, onAir, want, framing, deployedHeader)
	}
}
