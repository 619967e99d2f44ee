package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/mac"
	"iiotds/internal/radio"
)

func specFixtures() []Spec {
	return []Spec{
		{Seed: 1, Topo: TopoSpec{Kind: TopoGrid, N: 9}},
		{
			Seed: 42,
			Topo: TopoSpec{Kind: TopoCluster, Heads: 3, Members: 2},
			Classes: []ClassSpec{
				{Kind: "csma"},
				{Kind: "lpl", Wake: 250 * time.Millisecond},
			},
			WithCoAP: true,
			Workload: WorkloadSpec{
				ProbeEvery: 5 * time.Second, PushEvery: 10 * time.Second,
				AggEpoch: 15 * time.Second, HeartbeatEvery: 20 * time.Second,
			},
			Faults: FaultSpec{
				Churn:  NodeSel{Kind: "odd"},
				MeanUp: 25 * time.Second, MinUp: 20 * time.Second,
				MeanDown: 6 * time.Second, MinDown: 5 * time.Second,
				FlapLink: [2]int{1, 2}, FlapEvery: time.Minute, FlapPRR: 0.2,
				GELink: [2]int{5, 8}, GEPGoodBad: 0.1, GEPBadGood: 0.3,
				GEBadPRR: 0.3, GEStep: 5 * time.Second,
				Part: NodeSel{Kind: "farhalf"}, PartEvery: 150 * time.Second,
				PartHold: 10 * time.Second,
			},
			TraceCapacity: 1 << 14,
		},
		{
			Seed:   -7,
			Topo:   TopoSpec{Kind: TopoRGG, N: 12},
			Faults: FaultSpec{Churn: NodeSel{Kind: "list", IDs: []int{1, 3, 5}}, MeanUp: 30 * time.Second, MinUp: 30 * time.Second, MeanDown: 5 * time.Second, MinDown: 5 * time.Second},
		},
		{Seed: 0, Topo: TopoSpec{Kind: TopoPipeline, N: 5}, Classes: []ClassSpec{{Kind: "rimac"}}},
		{Seed: 15, Topo: TopoSpec{Kind: TopoRGG, N: 96, Density: 6}, Workload: WorkloadSpec{HeartbeatEvery: 15 * time.Second}},
		{
			Seed:     21,
			Topo:     TopoSpec{Kind: TopoGrid, N: 9},
			Workload: WorkloadSpec{IngestEvery: 5 * time.Second},
			Store: StoreSpec{Mode: "cp", Shards: 4, Replicas: 3,
				PartAt: 30 * time.Second, PartHold: 20 * time.Second},
		},
		{Seed: 22, Topo: TopoSpec{Kind: TopoGrid, N: 4}, Workload: WorkloadSpec{IngestEvery: 10 * time.Second}},
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	for _, spec := range specFixtures() {
		line := Format(spec)
		got, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		want := spec
		want.applyDefaults()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip drifted:\n line: %s\n got:  %+v\n want: %+v", line, got, want)
		}
		if again := Format(got); again != line {
			t.Errorf("Format not stable:\n  %s\n  %s", line, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"scn2;seed=1;topo=grid:n=9",
		"scn1",
		"scn1;topo=grid:n=9",                                    // missing seed
		"scn1;seed=1",                                           // missing topo
		"scn1;seed=1;seed=2;topo=grid:n=9",                      // duplicate field
		"scn1;seed=1;topo=grid:n=9;bogus=1",                     // unknown field
		"scn1;seed=1;topo=grid:n=9:heads=3",                     // subfield of wrong kind
		"scn1;seed=1;topo=grid:n=1",                             // fleet too small
		"scn1;seed=1;topo=torus:n=9",                            // unknown kind
		"scn1;seed=1;topo=grid:n=9;classes=tdma",                // unknown class
		"scn1;seed=1;topo=grid:n=9;probe=5s",                    // probe without coap
		"scn1;seed=1;topo=grid:n=9;conv=-3s",                    // negative duration
		"scn1;seed=1;topo=grid:n=9;churn=odd:up=25s",            // churn with no recovery delay
		"scn1;seed=1;topo=grid:n=9;flap=2-2:every=10s:prr=0.1",  // degenerate link
		"scn1;seed=1;topo=grid:n=9;flap=1-20:every=10s:prr=0.1", // link out of range
		"scn1;seed=1;topo=grid:n=9;flap=1-2:every=0s:prr=0.1",   // zero period
		"scn1;seed=1;topo=grid:n=9;ge=1-2:pgb=1.5:pbg=0.3:bad=0.3:step=5s", // p>1
		"scn1;seed=1;topo=grid:n=9;churn=list(0.3):up=25s:down=5s",         // root in list
		"scn1;seed=1;topo=grid:n=9;coap=yes",
		"scn1;seed=1;topo=grid:n=9;store=ap:shards=2:rep=3",             // store without ingest
		"scn1;seed=1;topo=grid:n=9;ingest=5s;store=xx:shards=2:rep=3",   // unknown mode
		"scn1;seed=1;topo=grid:n=9;ingest=5s;store=ap:shards=0:rep=3",   // shards out of range
		"scn1;seed=1;topo=grid:n=9;ingest=5s;store=ap:shards=2:rep=9",   // replicas out of range
		"scn1;seed=1;topo=grid:n=9;ingest=5s;store=ap:hold=0s",          // zero episode hold
		"scn1;seed=1;topo=grid:n=9;ingest=5s;store=ap:part=10m:hold=5s", // episode past soak
		"scn1;seed=1;topo=rgg:n=96:dens=0.000000001",                    // area from dens above the grammar's 1e6 m
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", in)
		}
	}
}

func TestParseCanonicalizesDurations(t *testing.T) {
	// Non-canonical duration spellings parse fine; Format then emits the
	// canonical spelling, and that line is a fixed point.
	in := "scn1;seed=1;topo=grid:n=9;conv=180s"
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Converge != 3*time.Minute {
		t.Fatalf("conv = %s", s.Converge)
	}
	line := Format(s)
	if !strings.Contains(line, "conv=3m0s") {
		t.Errorf("canonical line %q should spell conv=3m0s", line)
	}
	s2, err := Parse(line)
	if err != nil || Format(s2) != line {
		t.Errorf("canonical line is not a fixed point: %q", line)
	}
}

func TestFormatPanicsOnExpertSeams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Format should panic on a spec with Factories")
		}
	}()
	s := Spec{Seed: 1, Topo: TopoSpec{Kind: TopoGrid, N: 4}}
	s.Factories.MAC = func(*radio.Medium, radio.NodeID, *core.Profile) mac.MAC { return nil }
	Format(s)
}

// TestPublishedReproducers pins every runnable reproducer the repo
// publishes — CI's scenario steps, README, iiotsim's doc comment and
// ROADMAP's two routing-loop records — to its canonical Format output,
// so a codec change that would make a published line replay a
// different run (or stop parsing) fails here.
func TestPublishedReproducers(t *testing.T) {
	for _, c := range []struct{ in, canon string }{
		{ // ci.yml scenario smoke
			"scn1;seed=42;topo=grid:n=9;soak=45s;hb=5s;churn=odd:up=25s:minup=20s:down=6s:mindown=5s",
			"scn1;seed=42;topo=grid:n=9:sp=15;classes=csma;conv=3m0s;soak=45s;drain=1m0s;check=10s;hb=5s;churn=odd:up=25s:minup=20s:down=6s:mindown=5s",
		},
		{ // ci.yml journey coverage gate
			"scn1;seed=7;topo=grid:n=16;coap=1;conv=3m;soak=2m;drain=1m;probe=5s",
			"scn1;seed=7;topo=grid:n=16:sp=15;classes=csma;coap=1;conv=3m0s;soak=2m0s;drain=1m0s;check=10s;probe=5s",
		},
		{ // ci.yml store smoke, README
			"scn1;seed=9;topo=grid:n=9;soak=1m0s;ingest=2s;store=ap:shards=2:rep=3:part=20s:hold=20s",
			"scn1;seed=9;topo=grid:n=9:sp=15;classes=csma;conv=3m0s;soak=1m0s;drain=1m0s;check=10s;ingest=2s;store=ap:shards=2:rep=3:part=20s:hold=20s",
		},
		{ // README, iiotsim doc comment
			"scn1;seed=42;topo=grid:n=16;hb=5s;churn=odd:up=25s:minup=20s:down=6s:mindown=5s",
			"scn1;seed=42;topo=grid:n=16:sp=15;classes=csma;conv=3m0s;soak=2m0s;drain=1m0s;check=10s;hb=5s;churn=odd:up=25s:minup=20s:down=6s:mindown=5s",
		},
		{ // README journey coverage gate
			"scn1;seed=7;topo=grid:n=16;coap=1;probe=5s",
			"scn1;seed=7;topo=grid:n=16:sp=15;classes=csma;coap=1;conv=3m0s;soak=2m0s;drain=1m0s;check=10s;probe=5s",
		},
		{ // ROADMAP routing loop (i)
			"scn1;seed=1152403590140416644;topo=pipeline:n=8:sp=15;classes=csma+lpl@250ms;conv=3m0s;soak=50s;drain=2m0s;check=10s;push=11s;churn=even:up=29s:minup=27s:down=8s:mindown=5s;flap=0-5:every=43s:prr=0.3",
			"scn1;seed=1152403590140416644;topo=pipeline:n=8:sp=15;classes=csma+lpl@250ms;conv=3m0s;soak=50s;drain=2m0s;check=10s;push=11s;churn=even:up=29s:minup=27s:down=8s:mindown=5s;flap=0-5:every=43s:prr=0.3",
		},
		{ // ROADMAP routing loop (ii)
			"scn1;seed=3157067258645533430;topo=grid:n=16:sp=15;classes=csma+lpl@250ms;coap=1;conv=3m0s;soak=53s;drain=30s;check=10s;push=8s;hb=7s;ingest=2s;store=cp:shards=3:rep=3:part=5s:hold=13s",
			"scn1;seed=3157067258645533430;topo=grid:n=16:sp=15;classes=csma+lpl@250ms;coap=1;conv=3m0s;soak=53s;drain=30s;check=10s;push=8s;hb=7s;ingest=2s;store=cp:shards=3:rep=3:part=5s:hold=13s",
		},
	} {
		s, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := Format(s); got != c.canon {
			t.Errorf("Format(Parse(%q)):\n got:  %s\n want: %s", c.in, got, c.canon)
		}
	}
}

// TestGrammarReachesEveryField fails when Spec or a type inside it
// gains a field that no row of the grammar reads and writes, so a new
// workload or fault cannot ship without its codec key. Profiles and
// Factories are the expert seams the codec leaves out on purpose.
func TestGrammarReachesEveryField(t *testing.T) {
	var s Spec
	reached := map[uintptr][]reflect.Type{} // slot address → the types values point at there
	for _, kind := range []TopoKind{TopoGrid, TopoPipeline, TopoCluster, TopoRGG} {
		s.Topo.Kind = kind
		for _, row := range fields(&s) {
			for _, f := range append([]field{row}, row.subs...) {
				p := reflect.ValueOf(f.v)
				for p.Kind() == reflect.Struct {
					p = p.Field(0)
				}
				reached[p.Pointer()] = append(reached[p.Pointer()], p.Type().Elem())
			}
		}
	}
	// sel and classes spell NodeSel and ClassSpec whole: a field added
	// to either must be taught to their Set and String, then listed here.
	whole := map[reflect.Type][]string{
		reflect.TypeOf(NodeSel{}):   {"Kind", "IDs"},
		reflect.TypeOf(ClassSpec{}): {"Kind", "Wake"},
	}
	for typ, want := range whole {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s has fields %v; sel/classes spell %v", typ.Name(), got, want)
		}
	}
	hit := func(f reflect.Value) bool {
		for _, typ := range reached[f.Addr().Pointer()] {
			// A struct shares its address with its first field, so only
			// its own type reaches it; the topology kind is read as text.
			if typ == f.Type() || typ.Kind() == f.Kind() && f.Kind() != reflect.Struct {
				return true
			}
		}
		return false
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case name == "Profiles" || name == "Factories" || hit(f):
			case f.Kind() == reflect.Struct && whole[f.Type()] == nil:
				walk(f, name+".")
			default:
				t.Errorf("Spec.%s is reached by no grammar row", name)
			}
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")
}
