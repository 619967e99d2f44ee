package scenario

import (
	"runtime"
	"testing"
	"time"

	"iiotds/internal/core"
	"iiotds/internal/rpl"
)

// TestMeshHeldBytesPerNode bounds the live heap a converged mesh holds
// per node: the fig1-uplink benchmark's plant (1000-node RGG at density
// 6, plant seed 1101, CSMA, 5-minute DAO refresh, no tracing), converged
// and settled for 30 virtual seconds, as the benchmark does before its
// traffic starts. Most of it is per-node protocol state: the link
// table, the MAC's dedup state, the candidate parents and the root's
// downward routes, for about 31 heard neighbours a node.
//
// History (linux/amd64, go1.24): 8777 B per node with those four as
// maps (three of them of heap pointers), 6115 B with them as value
// slices sorted by id.
func TestMeshHeldBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and converges a 1000-node mesh")
	}
	const nodes = 1000
	spec := Spec{
		Seed: 1101,
		Topo: TopoSpec{Kind: TopoRGG, N: nodes, Density: 6},
		Profiles: []core.Profile{{
			Name:   "mesh",
			MAC:    core.MACCSMA,
			Router: &rpl.Config{HopLimit: 64, DAOInterval: 5 * time.Minute},
		}},
		TraceCapacity: -1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := Build(spec).D
	if ok, _ := d.RunUntilConverged(20 * time.Minute); !ok {
		t.Fatal("the plant did not converge in 20 virtual minutes")
	}
	d.K.RunFor(30 * time.Second)
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nodes
	t.Logf("%.0f B of live heap per node (%d nodes)", per, nodes)
	if per > 7_400 {
		t.Fatalf("the mesh holds %.0f B per node, want <= 7400", per)
	}
	runtime.KeepAlive(d)
}
