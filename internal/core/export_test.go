package core

import "iiotds/internal/radio"

// Accessors and operations only tests use.

// Positions strips the profile bindings back to radio positions.
func (t Topology) Positions() radio.Topology {
	out := make(radio.Topology, len(t))
	for i, ns := range t {
		out[i] = ns.Pos
	}
	return out
}

// Stripes returns the stripe count.
func (sd *ShardedDeployment) Stripes() int { return len(sd.Shards) }
