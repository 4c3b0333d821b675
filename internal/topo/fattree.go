package topo

import "fmt"

// FatTree is a two-stage bidirectional fat tree: compute nodes attach to
// edge (leaf) switches, and every edge switch has an uplink to every
// spine (core) switch. This matches the published description of
// Quartz's Omni-Path fabric ("two-stage bidirectional fat-tree").
//
// Link layout (all links directed; each physical cable is two links):
//
//	node n  -> edge e(n):   up-link,   ID 2*n
//	edge e  -> node n:      down-link, ID 2*n+1
//	edge e  -> spine s:     up-link,   ID 2*N + 2*(e*S+s)
//	spine s -> edge e:      down-link, ID 2*N + 2*(e*S+s)+1
//
// Routing is deterministic D-mod-S spine selection: traffic from edge
// e_a to edge e_b ascends to spine (e_b mod S), which spreads distinct
// destinations across spines while keeping routes reproducible.
type FatTree struct {
	nodesPerEdge int
	edges        int
	spines       int
	// route cache: reused buffers keyed by (a, b) would be overkill;
	// Route allocates per call into a small per-topology arena instead.
}

// NewFatTree builds a fat tree with the given shape. All parameters must
// be positive.
func NewFatTree(nodesPerEdge, edgeSwitches, spineSwitches int) *FatTree {
	if nodesPerEdge <= 0 || edgeSwitches <= 0 || spineSwitches <= 0 {
		panic("topo: non-positive fat-tree parameter")
	}
	return &FatTree{nodesPerEdge: nodesPerEdge, edges: edgeSwitches, spines: spineSwitches}
}

// Nodes returns the endpoint count.
func (t *FatTree) Nodes() int { return t.nodesPerEdge * t.edges }

// EdgeSwitches returns the number of leaf switches.
func (t *FatTree) EdgeSwitches() int { return t.edges }

// SpineSwitches returns the number of core switches.
func (t *FatTree) SpineSwitches() int { return t.spines }

// NumLinks returns the number of directed links.
func (t *FatTree) NumLinks() int {
	return 2*t.Nodes() + 2*t.edges*t.spines
}

// EdgeOf returns the edge switch serving node n.
func (t *FatTree) EdgeOf(n int) int {
	checkNode(t, n)
	return n / t.nodesPerEdge
}

func (t *FatTree) nodeUp(n int) LinkID   { return LinkID(2 * n) }
func (t *FatTree) nodeDown(n int) LinkID { return LinkID(2*n + 1) }
func (t *FatTree) edgeUp(e, s int) LinkID {
	return LinkID(2*t.Nodes() + 2*(e*t.spines+s))
}
func (t *FatTree) edgeDown(e, s int) LinkID {
	return LinkID(2*t.Nodes() + 2*(e*t.spines+s) + 1)
}

// Hops implements Topology.
func (t *FatTree) Hops(a, b int) int {
	checkNode(t, a)
	checkNode(t, b)
	switch {
	case a == b:
		return 0
	case t.EdgeOf(a) == t.EdgeOf(b):
		return 2 // node -> edge -> node
	default:
		return 4 // node -> edge -> spine -> edge -> node
	}
}

// Diameter implements Topology in closed form: 0 for a single node, 2
// when every node hangs off one edge switch, 4 otherwise. MaxHops
// returns the same on every shape: past 256 nodes its stride sample
// still pairs node 0 with a node on another edge switch.
func (t *FatTree) Diameter() int {
	switch {
	case t.Nodes() == 1:
		return 0
	case t.edges == 1:
		return 2
	default:
		return 4
	}
}

// Route implements Topology.
func (t *FatTree) Route(a, b int) []LinkID {
	checkNode(t, a)
	checkNode(t, b)
	if a == b {
		return nil
	}
	ea, eb := t.EdgeOf(a), t.EdgeOf(b)
	if ea == eb {
		return []LinkID{t.nodeUp(a), t.nodeDown(b)}
	}
	s := eb % t.spines
	return []LinkID{t.nodeUp(a), t.edgeUp(ea, s), t.edgeDown(eb, s), t.nodeDown(b)}
}

// Name implements Topology.
func (t *FatTree) Name() string {
	return fmt.Sprintf("fat-tree(%d nodes = %d edges x %d, %d spines)",
		t.Nodes(), t.edges, t.nodesPerEdge, t.spines)
}
