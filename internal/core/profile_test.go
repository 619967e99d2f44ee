package core

import (
	"strings"
	"testing"
	"time"

	"iiotds/internal/mac"
	"iiotds/internal/radio"
	"iiotds/internal/rpl"
)

// twoClassStack is a small heterogeneous fleet: a CSMA root + backbone
// pair, with LPL leaves hung off them.
func twoClassStack(opts func(*Stack)) Stack {
	s := Stack{
		Seed: 23,
		Profiles: []Profile{
			{Name: "backbone", MAC: MACCSMA},
			{Name: "leaf", MAC: MACLPL, LPL: mac.LPLConfig{WakeInterval: 250 * time.Millisecond},
				Router: &rpl.Config{Trickle: rpl.TrickleConfig{
					Imin: 500 * time.Millisecond, Doublings: 1, K: 1 << 30,
				}}},
		},
		Topology: Topology{
			{Pos: radio.Position{}, Profile: "backbone"},
			{Pos: radio.Position{X: 15}, Profile: "backbone"},
			{Pos: radio.Position{X: 8, Y: 10}, Profile: "leaf"},
			{Pos: radio.Position{X: 20, Y: 10}, Profile: "leaf"},
		},
	}
	if opts != nil {
		opts(&s)
	}
	return s
}

// The leaf profile above gives its class fast fixed-rate root beaconing
// so the mixed DODAG converges quickly; see e13Fleets for the same idiom.

func TestHeterogeneousStackConverges(t *testing.T) {
	d := NewStack(twoClassStack(nil))
	ok, _ := d.RunUntilConverged(2 * time.Minute)
	if !ok {
		t.Fatal("mixed CSMA/LPL stack did not converge")
	}
	for _, n := range d.Nodes {
		if n.Profile() == nil {
			t.Fatalf("node %d has no profile", n.ID)
		}
	}
	if got := d.Nodes[2].MAC.Name(); got != "lpl" {
		t.Fatalf("leaf node built %q MAC, want lpl", got)
	}
	if got := d.Nodes[1].MAC.Name(); got != "csma" {
		t.Fatalf("backbone node built %q MAC, want csma", got)
	}
}

// TestFactoriesInterpose proves the MAC seam: a custom MAC factory can
// wrap/observe construction per profile, and the deployment still runs
// on what it returns.
func TestFactoriesInterpose(t *testing.T) {
	built := map[string]int{}
	s := twoClassStack(func(s *Stack) {
		s.Factories = Factories{
			MAC: func(m *radio.Medium, id radio.NodeID, p *Profile) mac.MAC {
				built[p.Name]++
				return DefaultMAC(m, id, p)
			},
		}
	})
	d := NewStack(s)
	if built["backbone"] != 2 || built["leaf"] != 2 {
		t.Fatalf("MAC factory calls per profile = %v, want 2 each", built)
	}
	if ok, _ := d.RunUntilConverged(2 * time.Minute); !ok {
		t.Fatal("stack with interposed factories did not converge")
	}
}

func TestTopologyPositionsRoundTrip(t *testing.T) {
	pos := radio.GridTopology(9, 10)
	topo := Uniform("x", pos)
	got := topo.Positions()
	if len(got) != len(pos) {
		t.Fatalf("Positions() returned %d, want %d", len(got), len(pos))
	}
	for i := range pos {
		if got[i] != pos[i] {
			t.Fatalf("position %d mangled: %v vs %v", i, got[i], pos[i])
		}
	}
}

// stackPanic runs NewStack and returns the recovered panic message.
func stackPanic(t *testing.T, s Stack) string {
	t.Helper()
	msg := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		NewStack(s)
	}()
	if msg == "" {
		t.Fatal("expected NewStack to panic")
	}
	return msg
}

// TestStackValidationNamesField checks that every structural panic names
// the offending field, as Stack.validate promises.
func TestStackValidationNamesField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Stack)
		want string
	}{
		{"empty topology", func(s *Stack) { s.Topology = nil }, "Stack.Topology"},
		{"no profiles", func(s *Stack) { s.Profiles = nil }, "Stack.Profiles"},
		{"unnamed profile", func(s *Stack) { s.Profiles[1].Name = "" }, "Stack.Profiles[1].Name"},
		{"duplicate profile", func(s *Stack) { s.Profiles[1].Name = "backbone" }, "Stack.Profiles[1].Name"},
		{"unknown binding", func(s *Stack) { s.Topology[2].Profile = "ghost" }, `Stack.Topology[2].Profile "ghost"`},
		{"negative trickle", func(s *Stack) {
			s.Profiles[0].Router = &rpl.Config{Trickle: rpl.TrickleConfig{Imin: -time.Second}}
		}, "Stack.Profiles[0].Router.Trickle.Imin"},
		{"negative profile trickle", func(s *Stack) {
			s.Profiles[1].Router.Trickle.Imin = -time.Second
		}, "Stack.Profiles[1].Router.Trickle.Imin"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := twoClassStack(c.mut)
			msg := stackPanic(t, s)
			if !strings.Contains(msg, c.want) {
				t.Fatalf("panic %q does not name %q", msg, c.want)
			}
		})
	}
}

// TestPerProfileRouterOverride checks that a profile's Router config
// replaces the stack-wide one for that class only.
func TestPerProfileRouterOverride(t *testing.T) {
	d := NewStack(twoClassStack(nil))
	leaf := d.NodesByProfile("leaf")[0]
	if leaf.Profile().Router == nil {
		t.Fatal("leaf profile lost its Router override")
	}
	if got := leaf.Profile().Router.Trickle.Doublings; got != 1 {
		t.Fatalf("leaf trickle doublings = %d, want the override's 1", got)
	}
	backbone := d.NodesByProfile("backbone")[0]
	if backbone.Profile().Router != nil {
		t.Fatal("backbone profile grew a Router override it was never given")
	}
}
