package scenario

import (
	"reflect"
	"testing"
)

// FuzzParseSpec fuzzes the reproducer codec. Properties: Parse never
// panics; any input Parse accepts canonicalizes — Format of the parsed
// spec reparses to an identical spec and is a formatting fixed point.
// The codec is how failing property triples travel (CI log → developer
// terminal → iiotsim -scenario), so a string that parses but does not
// round-trip would silently replay a different run.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range specFixtures() {
		f.Add(Format(spec))
	}
	f.Add("scn1;seed=7;topo=grid:n=9;classes=csma+lpl@500ms;coap=1;probe=5s")
	f.Add("scn1;seed=1;topo=cluster:heads=3:mem=2;churn=even:up=30s:minup=20s:down=6s:mindown=5s")
	f.Add("scn1;seed=2;topo=rgg:n=12:area=60:link=18;part=farhalf:every=2m0s:hold=10s")
	f.Add("scn1;seed=3;topo=pipeline:n=5;flap=1-2:every=45s:prr=0.25;trace=-1")
	f.Add("scn1;seed=4;topo=rgg:n=96:area=100:link=18:dens=6;hb=15s")
	f.Add("scn1;seed=5;topo=grid:n=9;ingest=5s;store=cp:shards=4:rep=3:part=30s:hold=20s")
	f.Add("scn1;seed=1;topo=rgg:n=96:dens=0.000000001") // once parsed, Format wrote an area Parse refused
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		line := Format(s)
		s2, err := Parse(line)
		if err != nil {
			t.Fatalf("canonical line does not reparse: %v\n in:   %q\n line: %q", err, in, line)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("reparse drifted:\n in:   %q\n line: %q\n got:  %+v\n want: %+v", in, line, s2, s)
		}
		if again := Format(s2); again != line {
			t.Fatalf("Format not a fixed point:\n  %s\n  %s", line, again)
		}
	})
}
