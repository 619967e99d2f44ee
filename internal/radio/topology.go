package radio

import (
	"fmt"
	"math"
)

// Topology is a set of node positions, produced by the generators below
// and consumed when building deployments. Index i is the position of the
// i-th node.
type Topology []Position

// GridTopology lays out n nodes on a near-square grid with the given
// spacing in meters. The first position is the grid corner (0,0), which
// deployments conventionally use for the border router.
func GridTopology(n int, spacing float64) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("radio: GridTopology n=%d", n))
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	t := make(Topology, n)
	for i := 0; i < n; i++ {
		t[i] = Position{
			X: float64(i%cols) * spacing,
			Y: float64(i/cols) * spacing,
		}
	}
	return t
}

// LineTopology lays out n nodes on a line with the given spacing: the
// canonical multi-hop chain for latency experiments (E3).
func LineTopology(n int, spacing float64) Topology {
	if n <= 0 {
		panic(fmt.Sprintf("radio: LineTopology n=%d", n))
	}
	t := make(Topology, n)
	for i := 0; i < n; i++ {
		t[i] = Position{X: float64(i) * spacing}
	}
	return t
}
