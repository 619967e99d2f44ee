package main

import (
	"slices"
	"testing"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/scenario"
)

func TestDeploymentSpecTopologies(t *testing.T) {
	for flag, want := range map[string]scenario.TopoKind{
		"grid":   scenario.TopoGrid,
		"line":   scenario.TopoPipeline,
		"random": scenario.TopoRGG,
	} {
		spec, err := deploymentSpec(flag, "csma", 25, 12, time.Second, 3)
		if err != nil {
			t.Fatalf("-topology %s: %v", flag, err)
		}
		if spec.Topo.Kind != want || spec.Topo.N != 25 || spec.Topo.Spacing != 12 || spec.Seed != 3 {
			t.Errorf("-topology %s: got %+v seed %d, want kind %s, 25 nodes 12 m apart, seed 3", flag, spec.Topo, spec.Seed, want)
		}
	}
	if _, err := deploymentSpec("ring", "csma", 25, 15, time.Second, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestDeploymentSpecClassesCycleOverNodes(t *testing.T) {
	spec, err := deploymentSpec("grid", "csma, lpl,csma", 7, 15, 250*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []scenario.ClassSpec{{Kind: "csma"}, {Kind: "lpl", Wake: 250 * time.Millisecond}, {Kind: "csma"}}
	if !slices.Equal(spec.Classes, want) {
		t.Fatalf("classes = %+v, want %+v (wake on the LPL class only)", spec.Classes, want)
	}
	wantMAC := []core.MACKind{core.MACCSMA, core.MACLPL, core.MACCSMA}
	for i, n := range scenario.Build(spec).D.Nodes {
		p := n.Profile()
		if p.MAC != wantMAC[i%3] {
			t.Errorf("node %d runs MAC %v, want %v", n.ID, p.MAC, wantMAC[i%3])
		}
		wantWake := time.Duration(0)
		if p.MAC == core.MACLPL {
			wantWake = 250 * time.Millisecond
		}
		if p.LPL.WakeInterval != wantWake {
			t.Errorf("node %d: wake %v, want %v", n.ID, p.LPL.WakeInterval, wantWake)
		}
	}
}

func TestDeploymentSpecRefusesBadValues(t *testing.T) {
	for name, build := range map[string]func() error{
		"5000-node grid": func() error { _, err := deploymentSpec("grid", "csma", 5000, 15, time.Second, 1); return err },
		"unknown class":  func() error { _, err := deploymentSpec("grid", "tdma", 9, 15, time.Second, 1); return err },
		"empty class":    func() error { _, err := deploymentSpec("grid", "csma,,lpl", 9, 15, time.Second, 1); return err },
		"negative wake":  func() error { _, err := deploymentSpec("grid", "lpl", 9, 15, -time.Second, 1); return err },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if build() == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
	}
}

func TestParseKillsStayInsideTheRun(t *testing.T) {
	kills, err := parseKills("3@0s, 7@19s", 9, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := []kill{{3, 0}, {7, 19 * time.Second}}; !slices.Equal(kills, want) {
		t.Fatalf("kills = %v, want %v", kills, want)
	}
	for _, bad := range []string{"3@90s", "3@20s", "3@-5s", "9@1s", "0@1s", "3", "3@soon"} {
		if _, err := parseKills(bad, 9, 20*time.Second); err == nil {
			t.Errorf("-kill %s accepted for a 20 s run of 9 nodes", bad)
		}
	}
}
