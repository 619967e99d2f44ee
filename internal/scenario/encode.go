package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The reproducer codec. Format renders an encodable Spec as a single
// version-tagged line and Parse reads it back; the round-trip law
// Parse(Format(s)) == canonical(s) is pinned by tests and fuzzed. The
// string is the currency of the property harness: a failing triple is
// shrunk, printed as this line, and replayed with `iiotsim -scenario`.
//
// Grammar (fields `;`-separated, subfields `:`-separated):
//
//	scn1;seed=42;topo=grid:n=16:sp=15;classes=csma+lpl@250ms;coap=1;
//	conv=3m0s;soak=2m0s;drain=1m0s;check=10s;probe=5s;push=10s;
//	agg=10s;hb=15s;ingest=5s;store=ap:shards=2:rep=3:part=30s:hold=20s;
//	churn=odd:up=25s:minup=25s:down=5s:mindown=5s;
//	flap=1-2:every=60s:prr=0.2;ge=5-8:pgb=0.1:pbg=0.3:bad=0.3:step=5s;
//	part=farhalf:every=2m30s:hold=10s;trace=65536
//
// The grammar is one table, fields: Format and Parse walk it, and
// Spec.Validate applies each value's rule to a Go-built spec. Workload
// and fault fields are omitted when disabled; durations use
// time.Duration.String(); floats use the shortest exact decimal; list
// selectors use `.`-separated IDs (`list(1.3.5)`). The Profiles and
// Factories expert seams are deliberately not representable — specs
// using them are built in Go, not replayed from strings.

// codecVersion tags the reproducer grammar.
const codecVersion = "scn1"

// field is one `key=value` entry of the grammar. A top-level field's
// value is followed by its `:k=v` subfields, which are fields too.
type field struct {
	key  string
	v    value
	subs []field // the subfields Parse allows, in Format's order
	full bool    // Parse requires every subfield
	omit bool    // Format leaves the field out
}

// value is one typed slot of the Spec: Set reads Parse's spelling,
// String writes Format's. A value whose slot a Go-built spec can hold
// out of range also has Validate's rule, check (spec.go).
type value interface {
	Set(string) error
	String() string
}

// fields is the grammar over s, in Format's order. Topo's subfields
// depend on its kind, so that irrelevant parameters (which Format would
// drop) cannot smuggle into a parsed spec and break round-trip
// stability.
func fields(s *Spec) []field {
	t, w, st, f := &s.Topo, &s.Workload, &s.Store, &s.Faults
	topo := []field{{key: "n", v: integer{&t.N}}, {key: "sp", v: float{&t.Spacing, 1e6}}}
	switch t.Kind {
	case TopoCluster:
		topo = []field{
			{key: "heads", v: integer{&t.Heads}}, {key: "mem", v: integer{&t.Members}},
			{key: "hs", v: float{&t.HeadSpacing, 1e6}}, {key: "dy", v: float{&t.MemberDY, 1e6}},
			{key: "dx", v: float{&t.MemberDX, 1e6}},
		}
	case TopoRGG:
		// Density is recorded for provenance — the canonical spec
		// already has Area filled from it, so replay does not depend
		// on re-deriving the area.
		topo = []field{
			{key: "n", v: integer{&t.N}}, {key: "area", v: float{&t.Area, 1e6}},
			{key: "link", v: float{&t.MaxLink, 1e6}}, {key: "dens", v: float{&t.Density, 1e6}, omit: !(t.Density > 0)},
		}
	}
	return []field{
		{key: "seed", v: seed{&s.Seed}},
		{key: "topo", v: text{(*string)(&t.Kind)}, subs: topo},
		{key: "classes", v: classes{&s.Classes}},
		{key: "coap", v: flag{&s.WithCoAP}, omit: !s.WithCoAP},
		{key: "conv", v: dur{p: &s.Converge}},
		{key: "soak", v: dur{p: &s.Soak}},
		{key: "drain", v: dur{p: &s.Drain}},
		{key: "check", v: dur{p: &s.CheckEvery}},
		{key: "probe", v: dur{p: &w.ProbeEvery}, omit: w.ProbeEvery <= 0},
		{key: "push", v: dur{p: &w.PushEvery}, omit: w.PushEvery <= 0},
		{key: "agg", v: dur{p: &w.AggEpoch}, omit: w.AggEpoch <= 0},
		{key: "hb", v: dur{p: &w.HeartbeatEvery}, omit: w.HeartbeatEvery <= 0},
		{key: "ingest", v: dur{p: &w.IngestEvery}, omit: w.IngestEvery <= 0},
		// The canonical spec always has the store section filled when
		// ingest is on, so the field is written in full.
		{key: "store", v: text{&st.Mode}, subs: []field{
			{key: "shards", v: count{&st.Shards}}, {key: "rep", v: count{&st.Replicas}},
			{key: "part", v: dur{p: &st.PartAt}, omit: st.PartHold <= 0},
			{key: "hold", v: dur{p: &st.PartHold, period: true}, omit: st.PartHold <= 0},
		}, omit: w.IngestEvery <= 0},
		{key: "churn", v: sel{&f.Churn}, subs: []field{
			{key: "up", v: dur{p: &f.MeanUp}}, {key: "minup", v: dur{p: &f.MinUp}},
			{key: "down", v: dur{p: &f.MeanDown}}, {key: "mindown", v: dur{p: &f.MinDown}},
		}, omit: f.Churn.Kind == ""},
		{key: "flap", v: pair{&f.FlapLink}, subs: []field{
			{key: "every", v: dur{p: &f.FlapEvery, period: true}}, {key: "prr", v: prob{float{&f.FlapPRR, 1}}},
		}, full: true, omit: f.FlapEvery <= 0 || f.FlapLink == [2]int{}},
		{key: "ge", v: pair{&f.GELink}, subs: []field{
			{key: "pgb", v: prob{float{&f.GEPGoodBad, 1}}}, {key: "pbg", v: prob{float{&f.GEPBadGood, 1}}},
			{key: "bad", v: prob{float{&f.GEBadPRR, 1}}}, {key: "step", v: dur{p: &f.GEStep, period: true}},
		}, full: true, omit: f.GEStep <= 0 || f.GELink == [2]int{}},
		{key: "part", v: sel{&f.Part}, subs: []field{
			{key: "every", v: dur{p: &f.PartEvery, period: true}}, {key: "hold", v: dur{p: &f.PartHold}},
		}, full: true, omit: f.PartEvery <= 0 || f.Part.Kind == ""},
		{key: "trace", v: integer{&s.TraceCapacity}, omit: s.TraceCapacity == 0},
	}
}

// Format renders the spec as a reproducer string. The spec is
// canonicalized (defaults applied) first, so the output names a
// concrete run. Panics if the spec is not Encodable — callers gate on
// Spec.Encodable.
func Format(s Spec) string {
	if !s.Encodable() {
		panic("scenario: Format on a spec with Profiles/Factories seams")
	}
	s.applyDefaults()
	var b strings.Builder
	b.WriteString(codecVersion)
	for _, f := range fields(&s) {
		if f.omit {
			continue
		}
		b.WriteString(";" + f.key + "=" + f.v.String())
		for _, sf := range f.subs {
			if !sf.omit {
				b.WriteString(":" + sf.key + "=" + sf.v.String())
			}
		}
	}
	return b.String()
}

// Parse reads a reproducer string back into a validated, canonical
// Spec. It is the inverse of Format and the fuzzing surface: any input
// must either parse into a spec Validate accepts or return an error —
// never panic.
func Parse(in string) (Spec, error) {
	var s Spec
	entries := strings.Split(in, ";")
	if entries[0] != codecVersion {
		return s, fmt.Errorf("scenario: not a %s reproducer string", codecVersion)
	}
	seen := map[string]bool{}
	for _, entry := range entries[1:] {
		key, val, ok := strings.Cut(entry, "=")
		if !ok || val == "" {
			return s, fmt.Errorf("scenario: malformed field %q", entry)
		}
		if seen[key] {
			return s, fmt.Errorf("scenario: duplicate field %q", key)
		}
		seen[key] = true
		if err := s.set(key, val); err != nil {
			return Spec{}, err
		}
	}
	if !seen["seed"] || !seen["topo"] {
		return Spec{}, fmt.Errorf("scenario: reproducer missing seed or topo")
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// set reads one field's value, `head:k=v:…`, into the spec.
func (s *Spec) set(key, val string) error {
	rows := fields(s)
	i := slices.IndexFunc(rows, func(f field) bool { return f.key == key })
	if i < 0 {
		return fmt.Errorf("scenario: unknown field %q", key)
	}
	parts := strings.Split(val, ":")
	if err := rows[i].v.Set(parts[0]); err != nil {
		return err
	}
	f := fields(s)[i] // topo's subfields follow the kind just read
	given := map[string]bool{}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		j := slices.IndexFunc(f.subs, func(sf field) bool { return sf.key == k })
		switch {
		case !ok || v == "":
			return fmt.Errorf("scenario: malformed subfield %q", p)
		case given[k]:
			return fmt.Errorf("scenario: duplicate subfield %q", k)
		case j < 0:
			return fmt.Errorf("scenario: unknown subfield %q", k)
		}
		given[k] = true
		if err := f.subs[j].v.Set(v); err != nil {
			return err
		}
	}
	if f.full && len(given) < len(f.subs) {
		return fmt.Errorf("scenario: field %q needs every subfield", key)
	}
	return nil
}

// seed is the run seed.
type seed struct{ p *int64 }

func (v seed) Set(s string) (err error) {
	*v.p, err = strconv.ParseInt(s, 10, 64)
	return err
}
func (v seed) String() string { return strconv.FormatInt(*v.p, 10) }

// integer is an int Validate bounds elsewhere (topology sizes, the
// trace capacity).
type integer struct{ p *int }

func (v integer) Set(s string) (err error) {
	*v.p, err = strconv.Atoi(s)
	return err
}
func (v integer) String() string { return strconv.Itoa(*v.p) }

// count is an int of at least 1: an explicit zero must not be
// conflated with "unset", which applyDefaults would fill.
type count struct{ p *int }

func (v count) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return fmt.Errorf("scenario: bad count %q", s)
	}
	*v.p = n
	return nil
}
func (v count) String() string { return strconv.Itoa(*v.p) }

// dur is a non-negative duration. A period must also be non-zero: the
// fault sections are only encoded while active, so a zero period would
// not round-trip.
type dur struct {
	p      *time.Duration
	period bool
}

func (v dur) Set(s string) error {
	d, err := time.ParseDuration(s)
	switch {
	case err != nil:
		return fmt.Errorf("scenario: bad duration %q", s)
	case d < 0:
		return fmt.Errorf("scenario: negative duration %q", s)
	case d == 0 && v.period:
		return fmt.Errorf("scenario: zero period %q", s)
	}
	*v.p = d
	return nil
}
func (v dur) String() string { return v.p.String() }

// float is a finite float in [0, max]. TopoSpec.validate holds a
// Go-built spec's geometry to its own rule.
type float struct {
	p   *float64
	max float64
}

func (v float) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !finite(f) || f < 0 || f > v.max {
		return fmt.Errorf("scenario: bad value %q", s)
	}
	*v.p = f
	return nil
}
func (v float) String() string { return strconv.FormatFloat(*v.p, 'g', -1, 64) }

// prob is a probability: a float in [0,1], in a Go-built spec too.
type prob struct{ float }

// text is a word Validate checks elsewhere (the topology kind, the
// store mode).
type text struct{ p *string }

func (v text) Set(s string) error { *v.p = s; return nil }
func (v text) String() string     { return *v.p }

// flag is an on switch, spelled 1; Format omits it when off.
type flag struct{ p *bool }

func (v flag) Set(s string) error {
	if s != "1" {
		return fmt.Errorf("scenario: flag must be 1, got %q", s)
	}
	*v.p = true
	return nil
}
func (v flag) String() string { return "1" }

// sel is a node selector: odd, even, farhalf or list(1.3.5).
type sel struct{ p *NodeSel }

func (v sel) Set(s string) error {
	switch s {
	case "odd", "even", "farhalf":
		*v.p = NodeSel{Kind: s}
		return nil
	}
	ids, list := strings.CutPrefix(s, "list(")
	ids, closed := strings.CutSuffix(ids, ")")
	if !list || !closed {
		return fmt.Errorf("scenario: unknown selector %q", s)
	}
	out := NodeSel{Kind: "list"}
	for _, p := range strings.Split(ids, ".") {
		id, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("scenario: bad selector ID %q", p)
		}
		out.IDs = append(out.IDs, id)
	}
	*v.p = out
	return nil
}

func (v sel) String() string {
	if v.p.Kind != "list" {
		return v.p.Kind
	}
	ids := make([]string, len(v.p.IDs))
	for i, id := range v.p.IDs {
		ids[i] = strconv.Itoa(id)
	}
	return "list(" + strings.Join(ids, ".") + ")"
}

// pair is a link between two distinct nodes, `a-b`; the zero pair
// disables its fault.
type pair struct{ p *[2]int }

func (v pair) Set(s string) error {
	a, b, ok := strings.Cut(s, "-")
	ai, err1 := strconv.Atoi(a)
	bi, err2 := strconv.Atoi(b)
	if !ok || err1 != nil || err2 != nil || ai == bi {
		return fmt.Errorf("scenario: malformed link %q", s)
	}
	*v.p = [2]int{ai, bi}
	return nil
}
func (v pair) String() string { return fmt.Sprintf("%d-%d", v.p[0], v.p[1]) }

// classes is the `+`-separated device class list, each `kind[@wake]`.
type classes struct{ p *[]ClassSpec }

func (v classes) Set(s string) error {
	var out []ClassSpec
	for _, part := range strings.Split(s, "+") {
		kind, wake, hasWake := strings.Cut(part, "@")
		c := ClassSpec{Kind: kind}
		if _, err := c.macKind(); err != nil || kind == "" {
			return fmt.Errorf("scenario: bad class %q", part)
		}
		if hasWake {
			if err := (dur{p: &c.Wake}).Set(wake); err != nil {
				return err
			}
		}
		out = append(out, c)
	}
	*v.p = out
	return nil
}

func (v classes) String() string {
	parts := make([]string, len(*v.p))
	for i, c := range *v.p {
		parts[i] = cmp.Or(c.Kind, "csma")
		if c.Wake > 0 {
			parts[i] += "@" + c.Wake.String()
		}
	}
	return strings.Join(parts, "+")
}
