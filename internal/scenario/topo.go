package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"iiotds/internal/radio"
)

// This file is the topology-generator catalog: every generator turns a
// small declarative TopoSpec into node positions with seeded
// determinism — the same (spec, seed) pair always yields the same
// adjacency, so a reproducer string replays the exact deployment. The
// generators cover the deployment shapes the paper's §II inventory
// names: regular sensor fields (grid), conveyor/pipeline runs
// (pipeline), plants organized as machine clusters hung off a wired
// spine (cluster), and irregular brown-field installations (rgg).

// TopoKind names a topology generator.
type TopoKind string

// Topology kinds.
const (
	// TopoGrid is a near-square grid with fixed spacing — the regular
	// sensor field most experiments use.
	TopoGrid TopoKind = "grid"
	// TopoPipeline is a linear chain — the canonical multi-hop
	// worst case (conveyor lines, pipelines).
	TopoPipeline TopoKind = "pipeline"
	// TopoCluster is a clustered factory: backbone heads on a spine,
	// leaf devices hung around each head. Nodes carry profile labels
	// ("backbone"/"leaf") so heterogeneous specs can bind device
	// classes per role.
	TopoCluster TopoKind = "cluster"
	// TopoRGG is a random geometric graph: nodes scattered over a
	// square area, each within MaxLink of an earlier node, so the
	// deployment is connected by construction.
	TopoRGG TopoKind = "rgg"
)

// TopoSpec declaratively describes one generated topology.
type TopoSpec struct {
	Kind TopoKind
	// N is the node count (grid, pipeline, rgg). Node 0 is the border
	// router by deployment convention.
	N int
	// Spacing is the grid/pipeline node spacing in meters (default 15,
	// inside the radio's 20 m reliable range).
	Spacing float64
	// Heads and Members size a cluster topology: Heads backbone nodes
	// on the spine, Members leaves per head; total 1+Heads*(1+Members).
	Heads, Members int
	// HeadSpacing, MemberDY, MemberDX are the cluster geometry
	// (defaults 15, 12, 4): heads HeadSpacing apart on the x-axis,
	// members hung ±MemberDY off their head, advancing MemberDX per
	// member pair.
	HeadSpacing, MemberDY, MemberDX float64
	// Area is the rgg square side in meters (default 18·√N, a density
	// at which rejection placement stays cheap).
	Area float64
	// Density, when positive and Area is zero, sizes the rgg area for a
	// target uniform density: Density is the expected number of nodes
	// within MaxLink of a point if N nodes were spread uniformly, so
	// Area = MaxLink·√(π·N/Density). The connected-growth sampler
	// clusters somewhat denser than uniform, but the knob is monotone —
	// city-scale fleets (E15) use it to hold per-node degree roughly
	// constant as N grows instead of fixing the area.
	Density float64
	// MaxLink is the rgg attachment radius (default 18 m). Keeping it
	// at or below the radio's reliable range (20 m) makes the
	// generated graph connected with reliable links by construction —
	// the documented density threshold for convergence-safe scenarios.
	MaxLink float64
}

// applyDefaults fills the zero-valued geometry fields.
func (ts *TopoSpec) applyDefaults() {
	if ts.Kind == "" {
		ts.Kind = TopoGrid
	}
	if ts.Spacing == 0 {
		ts.Spacing = 15
	}
	if ts.HeadSpacing == 0 {
		ts.HeadSpacing = 15
	}
	if ts.MemberDY == 0 {
		ts.MemberDY = 12
	}
	if ts.MemberDX == 0 {
		ts.MemberDX = 4
	}
	if ts.MaxLink == 0 {
		ts.MaxLink = 18
	}
	if ts.Area == 0 {
		if ts.Density > 0 {
			ts.Area = ts.MaxLink * math.Sqrt(math.Pi*float64(ts.Nodes())/ts.Density)
		} else {
			ts.Area = 18 * math.Sqrt(float64(ts.Nodes()))
		}
	}
}

// validate reports structural errors; geometry defaults must already be
// applied.
func (ts TopoSpec) validate() error {
	switch ts.Kind {
	case TopoGrid, TopoPipeline:
		if ts.N < 2 || ts.N > 4096 {
			return fmt.Errorf("scenario: topo %s n=%d out of range [2,4096]", ts.Kind, ts.N)
		}
	case TopoRGG:
		// The rgg generator and the sharded engine scale to city-size
		// fleets (E15); the structured generators stay capped where
		// single-kernel runs are practical.
		if ts.N < 2 || ts.N > 131072 {
			return fmt.Errorf("scenario: topo rgg n=%d out of range [2,131072]", ts.N)
		}
	case TopoCluster:
		if ts.Heads < 1 || ts.Members < 0 || ts.Nodes() > 4096 {
			return fmt.Errorf("scenario: topo cluster heads=%d members=%d invalid", ts.Heads, ts.Members)
		}
	default:
		return fmt.Errorf("scenario: unknown topology kind %q", ts.Kind)
	}
	if ts.Spacing < 0 || ts.HeadSpacing < 0 || ts.MemberDX < 0 || ts.MemberDY < 0 ||
		ts.Area < 0 || ts.Density < 0 || ts.MaxLink <= 0 ||
		!finite(ts.Spacing, ts.HeadSpacing, ts.MemberDX, ts.MemberDY, ts.Area, ts.Density, ts.MaxLink) {
		return fmt.Errorf("scenario: topo %s has negative or non-finite geometry", ts.Kind)
	}
	// The grammar's bound on area=, checked after a density sized it:
	// a larger area would Format into a line Parse refuses.
	if ts.Kind == TopoRGG && ts.Area > 1e6 {
		return fmt.Errorf("scenario: topo rgg area %g m exceeds 1e6 m", ts.Area)
	}
	return nil
}

// Nodes returns the total node count the spec generates.
func (ts TopoSpec) Nodes() int {
	if ts.Kind == TopoCluster {
		return 1 + ts.Heads*(1+ts.Members)
	}
	return ts.N
}

// Generate produces the node positions. The same (spec, seed) pair
// always produces the same positions; only the rgg generator consumes
// randomness, from its own rand.Rand derived from seed (independent of
// the simulation kernel's RNG, so protocol randomness never shifts the
// layout).
func (ts TopoSpec) Generate(seed int64) radio.Topology {
	spec := ts
	spec.applyDefaults()
	if err := spec.validate(); err != nil {
		panic(err)
	}
	switch spec.Kind {
	case TopoPipeline:
		return radio.LineTopology(spec.N, spec.Spacing)
	case TopoCluster:
		return spec.cluster()
	case TopoRGG:
		return spec.rgg(seed)
	default:
		return radio.GridTopology(spec.N, spec.Spacing)
	}
}

// Labels returns the per-node profile labels, parallel to Generate's
// positions, or nil when every node is the same role. Cluster
// topologies label the root and spine "backbone" and the hung devices
// "leaf".
func (ts TopoSpec) Labels() []string {
	spec := ts
	spec.applyDefaults()
	if spec.Kind != TopoCluster {
		return nil
	}
	labels := make([]string, 0, spec.Nodes())
	labels = append(labels, "backbone")
	for s := 1; s <= spec.Heads; s++ {
		labels = append(labels, "backbone")
	}
	for s := 1; s <= spec.Heads; s++ {
		for l := 0; l < spec.Members; l++ {
			labels = append(labels, "leaf")
		}
	}
	return labels
}

// cluster lays out the plant spine: the border router at the origin, a
// chain of Heads backbone nodes HeadSpacing apart, and Members leaves
// hung ±MemberDY off each head, advancing MemberDX per member pair.
// Every leaf reaches its head reliably; leaf traffic crosses
// 1..Heads+1 hops.
func (ts TopoSpec) cluster() radio.Topology {
	topo := radio.Topology{{}}
	for s := 1; s <= ts.Heads; s++ {
		topo = append(topo, radio.Position{X: float64(s) * ts.HeadSpacing})
	}
	for s := 1; s <= ts.Heads; s++ {
		for l := 0; l < ts.Members; l++ {
			y := ts.MemberDY
			if l%2 == 1 {
				y = -ts.MemberDY
			}
			topo = append(topo, radio.Position{
				X: float64(s)*ts.HeadSpacing + float64(l/2)*ts.MemberDX,
				Y: y,
			})
		}
	}
	return topo
}

// rggSeedMix decorrelates the generator stream from the kernel RNG,
// which is seeded with the same scenario seed.
const rggSeedMix = 0x7079_6c6f_6e5f

// rgg scatters N nodes over an Area×Area square, the border router at
// the center, every later node rejection-sampled until it lands within
// MaxLink of an earlier one — connected by construction at any density.
//
// The accept test uses a cell grid (cell side = MaxLink, 3×3 lookup)
// instead of scanning all placed nodes: the predicate "within MaxLink
// of some earlier node" is unchanged, so the accept/reject outcome per
// candidate — and with it the RNG draw sequence and every placement —
// is byte-identical to the original O(N) scan, while 100k-node layouts
// generate in roughly linear time.
func (ts TopoSpec) rgg(seed int64) radio.Topology {
	rng := rand.New(rand.NewSource(seed ^ rggSeedMix))
	t := make(radio.Topology, 0, ts.N)
	type cellKey struct{ x, y int32 }
	cells := make(map[cellKey][]radio.Position)
	cellOf := func(p radio.Position) cellKey {
		return cellKey{int32(math.Floor(p.X / ts.MaxLink)), int32(math.Floor(p.Y / ts.MaxLink))}
	}
	add := func(p radio.Position) {
		t = append(t, p)
		k := cellOf(p)
		cells[k] = append(cells[k], p)
	}
	near := func(p radio.Position) bool {
		c := cellOf(p)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, q := range cells[cellKey{c.x + dx, c.y + dy}] {
					if p.Distance(q) <= ts.MaxLink {
						return true
					}
				}
			}
		}
		return false
	}
	add(radio.Position{X: ts.Area / 2, Y: ts.Area / 2})
	for len(t) < ts.N {
		p := radio.Position{X: rng.Float64() * ts.Area, Y: rng.Float64() * ts.Area}
		if near(p) {
			add(p)
		}
	}
	return t
}

// finite reports whether every value is a finite float.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
