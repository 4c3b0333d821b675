package topo

import "fmt"

// Torus is an N-dimensional torus with dimension-ordered routing, the
// stand-in for Vulcan's BlueGene/Q 5-D torus in the Fig 1 reproduction.
//
// Node coordinates are mixed-radix over dims; each node has 2*len(dims)
// directed outgoing links (one per direction per dimension):
//
//	link(n, d, dir) = n*2*D + 2*d + dir   (dir 0 = +, 1 = -)
type Torus struct {
	dims []int
	n    int
	// diameter is MaxHops, taken once at construction. Past 256 nodes
	// that is the stride-sampled value, which can fall short of the
	// exact sum of floor(d/2) over dims (18 against 19 on Vulcan).
	diameter int
}

// NewTorus builds a torus with the given per-dimension sizes. Every
// dimension must be at least 1; a 1-wide dimension simply contributes no
// movement.
func NewTorus(dims ...int) *Torus {
	if len(dims) == 0 {
		panic("topo: torus needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic("topo: non-positive torus dimension")
		}
		n *= d
	}
	cp := make([]int, len(dims))
	copy(cp, dims)
	t := &Torus{dims: cp, n: n}
	t.diameter = MaxHops(t)
	return t
}

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.n }

// Dims returns a copy of the per-dimension sizes.
func (t *Torus) Dims() []int {
	cp := make([]int, len(t.dims))
	copy(cp, t.dims)
	return cp
}

// NumLinks implements Topology.
func (t *Torus) NumLinks() int { return t.n * 2 * len(t.dims) }

// Coords converts a node index to torus coordinates.
func (t *Torus) Coords(n int) []int {
	checkNode(t, n)
	c := make([]int, len(t.dims))
	for d := range t.dims {
		c[d] = n % t.dims[d]
		n /= t.dims[d]
	}
	return c
}

// Index converts coordinates back to a node index.
func (t *Torus) Index(coords []int) int {
	if len(coords) != len(t.dims) {
		panic("topo: coordinate dimensionality mismatch")
	}
	idx := 0
	mul := 1
	for d := range t.dims {
		c := coords[d]
		if c < 0 || c >= t.dims[d] {
			panic(fmt.Sprintf("topo: coordinate %d out of range in dim %d", c, d))
		}
		idx += c * mul
		mul *= t.dims[d]
	}
	return idx
}

// wrapDelta returns the signed shortest step count from a to b in a ring
// of the given size, preferring the positive direction on ties.
func wrapDelta(a, b, size int) int {
	fwd := (b - a + size) % size
	bwd := fwd - size // negative
	if fwd <= -bwd {
		return fwd
	}
	return bwd
}

// Hops implements Topology.
func (t *Torus) Hops(a, b int) int {
	ca, cb := t.Coords(a), t.Coords(b)
	h := 0
	for d := range t.dims {
		delta := wrapDelta(ca[d], cb[d], t.dims[d])
		if delta < 0 {
			delta = -delta
		}
		h += delta
	}
	return h
}

func (t *Torus) linkOf(node, dim, dir int) LinkID {
	return LinkID(node*2*len(t.dims) + 2*dim + dir)
}

// neighbor returns the node one step from n along dim in direction dir
// (0 = +, 1 = -), with wraparound.
func (t *Torus) neighbor(n, dim, dir int) int {
	c := t.Coords(n)
	if dir == 0 {
		c[dim] = (c[dim] + 1) % t.dims[dim]
	} else {
		c[dim] = (c[dim] - 1 + t.dims[dim]) % t.dims[dim]
	}
	return t.Index(c)
}

// Route implements Topology using dimension-ordered (e-cube) routing:
// the message fully resolves dimension 0, then dimension 1, and so on,
// taking the shorter wrap direction in each dimension.
func (t *Torus) Route(a, b int) []LinkID {
	checkNode(t, a)
	checkNode(t, b)
	if a == b {
		return nil
	}
	route := make([]LinkID, 0, t.Hops(a, b))
	cur := a
	ca, cb := t.Coords(a), t.Coords(b)
	for d := range t.dims {
		delta := wrapDelta(ca[d], cb[d], t.dims[d])
		dir := 0
		steps := delta
		if delta < 0 {
			dir = 1
			steps = -delta
		}
		for s := 0; s < steps; s++ {
			route = append(route, t.linkOf(cur, d, dir))
			cur = t.neighbor(cur, d, dir)
		}
	}
	return route
}

// Diameter implements Topology.
func (t *Torus) Diameter() int { return t.diameter }

// Name implements Topology.
func (t *Torus) Name() string {
	return fmt.Sprintf("torus%v(%d nodes)", t.dims, t.n)
}
