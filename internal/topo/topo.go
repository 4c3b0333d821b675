// Package topo provides the interconnect topologies used by FT-BESST's
// network cost model: the two-stage bidirectional fat tree of LLNL's
// Quartz (Omni-Path) and an N-dimensional torus standing in for LLNL's
// Vulcan (BlueGene/Q, 5-D torus).
//
// A topology maps node pairs to routes — ordered lists of directed link
// IDs — so the network model can charge per-hop latency and account for
// link-level contention when several flows share a link.
package topo

import "fmt"

// LinkID identifies one directed link in a topology. IDs are dense in
// [0, NumLinks()).
type LinkID int

// Topology describes a machine interconnect at link granularity.
type Topology interface {
	// Nodes returns the number of endpoints (compute nodes).
	Nodes() int
	// NumLinks returns the number of directed links.
	NumLinks() int
	// Hops returns the number of links a message from a to b
	// traverses. Hops(a, a) is 0.
	Hops(a, b int) int
	// Route returns the ordered directed links a message from a to b
	// traverses under the topology's deterministic routing. The
	// returned slice must not be modified. Route(a, a) is empty.
	Route(a, b int) []LinkID
	// Diameter returns the largest Hops over all node pairs, as
	// MaxHops measures it. It is a property of the shape, computed at
	// construction or in closed form, so reading it is O(1).
	Diameter() int
	// Name returns a short human-readable description.
	Name() string
}

func checkNode(t Topology, n int) {
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", n, t.Nodes()))
	}
}

// MaxHops returns the network diameter in hops, by exhaustive search for
// small topologies (at most 256 nodes) and deterministic stride
// sampling otherwise. It is the reference Diameter is checked against,
// and NewTorus keeps its value; network cost models read Diameter.
func MaxHops(t Topology) int {
	n := t.Nodes()
	max := 0
	if n <= 256 {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if h := t.Hops(a, b); h > max {
					max = h
				}
			}
		}
		return max
	}
	// Deterministic stride sampling for big machines.
	stride := n/256 + 1
	for a := 0; a < n; a += stride {
		for b := 0; b < n; b += stride {
			if h := t.Hops(a, b); h > max {
				max = h
			}
		}
	}
	return max
}
