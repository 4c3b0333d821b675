package symreg

import (
	"math"

	"besst/internal/stats"
)

// gene is one node of a genome: a Node without its child pointers.
// Value and VarIndex are kept for every op, as Node keeps them, so a
// genome converts to and from a Node tree without losing a field.
type gene struct {
	Op       Op
	Value    float64
	VarIndex int
}

// genome is an expression tree flattened in preorder: a node is
// followed by its left subtree, then its right subtree. The GP evolves
// genomes rather than Node trees so that copying, crossover and
// mutation are slice appends into buffers the population reuses, and
// the preorder index of a node is its position in the slice — the same
// index Node-tree subtree selection draws.
type genome []gene

// hash returns a 64-bit hash of every field of every gene, so genomes
// that are equal genes-for-genes (see equal) hash alike.
func (g genome) hash() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, x := range g {
		h = (h ^ uint64(x.Op) ^ uint64(x.VarIndex)<<8) * prime
		h = (h ^ math.Float64bits(x.Value)) * prime
	}
	return h
}

// equal reports whether g and o have the same genes exactly: the same
// Op, VarIndex and Value bits, so -0 and +0, or NaNs with different
// payloads, differ.
func (g genome) equal(o genome) bool {
	if len(g) != len(o) {
		return false
	}
	for i, x := range g {
		if x.Op != o[i].Op || x.VarIndex != o[i].VarIndex ||
			math.Float64bits(x.Value) != math.Float64bits(o[i].Value) {
			return false
		}
	}
	return true
}

// arity returns the number of children a node of kind op has.
func arity(op Op) int {
	switch op {
	case OpConst, OpVar:
		return 0
	case OpSq, OpCube, OpSqrt, OpLog:
		return 1
	default:
		return 2
	}
}

// end returns the index one past the subtree rooted at i.
func (g genome) end(i int) int {
	for need := 1; need > 0; i++ {
		need += arity(g[i].Op) - 1
	}
	return i
}

// depth returns the height of the tree, as Node.Depth does.
func (g genome) depth() int {
	d, _ := g.depthAt(0)
	return d
}

func (g genome) depthAt(i int) (d, end int) {
	switch arity(g[i].Op) {
	case 0:
		return 1, i + 1
	case 1:
		d, end = g.depthAt(i + 1)
		return d + 1, end
	default:
		l, mid := g.depthAt(i + 1)
		r, end := g.depthAt(mid)
		return 1 + max(l, r), end
	}
}

// appendNode appends n's preorder genome to dst.
func appendNode(dst genome, n *Node) genome {
	if n == nil {
		return dst
	}
	dst = append(dst, gene{Op: n.Op, Value: n.Value, VarIndex: n.VarIndex})
	dst = appendNode(dst, n.L)
	return appendNode(dst, n.R)
}

// node rebuilds the Node tree of g.
func (g genome) node() *Node {
	n, _ := g.nodeAt(0)
	return n
}

func (g genome) nodeAt(i int) (*Node, int) {
	n := &Node{Op: g[i].Op, Value: g[i].Value, VarIndex: g[i].VarIndex}
	i++
	switch arity(n.Op) {
	case 1:
		n.L, i = g.nodeAt(i)
	case 2:
		n.L, i = g.nodeAt(i)
		n.R, i = g.nodeAt(i)
	}
	return n, i
}

// appendRandom appends a random tree up to the given depth to dst.
// full forces operator nodes until depth runs out (the "full" half of
// ramped half-and-half initialization). Nodes are drawn parent first,
// then the left subtree, then the right: preorder is draw order.
func appendRandom(dst genome, rng *stats.RNG, nvars, depth int, full bool, constMin, constMax float64) genome {
	if depth <= 1 || (!full && rng.Float64() < 0.3) {
		// Leaf: variable or constant.
		if rng.Float64() < 0.6 {
			return append(dst, gene{Op: OpVar, VarIndex: rng.Intn(nvars)})
		}
		return append(dst, gene{Op: OpConst, Value: constMin + rng.Float64()*(constMax-constMin)})
	}
	if rng.Float64() < 0.7 {
		dst = append(dst, gene{Op: binaryOps[rng.Intn(len(binaryOps))]})
		dst = appendRandom(dst, rng, nvars, depth-1, full, constMin, constMax)
		return appendRandom(dst, rng, nvars, depth-1, full, constMin, constMax)
	}
	dst = append(dst, gene{Op: unaryOps[rng.Intn(len(unaryOps))]})
	return appendRandom(dst, rng, nvars, depth-1, full, constMin, constMax)
}

// crossover writes into dst (reusing its storage) the standard subtree
// crossover of a and b: a copy of a with a random subtree replaced by a
// random subtree of b.
func crossover(dst, a, b genome, rng *stats.RNG) genome {
	t := rng.Intn(len(a))
	d := rng.Intn(len(b))
	dst = append(dst[:0], a[:t]...)
	dst = append(dst, b[d:b.end(d)]...)
	return append(dst, a[a.end(t):]...)
}

// mutate writes into dst (reusing its storage) a copy of t with one
// random node changed by one of: subtree replacement, constant jitter,
// or variable swap.
func mutate(dst, t genome, nvars int, opt Options, rng *stats.RNG) genome {
	i := rng.Intn(len(t))
	dst = append(dst[:0], t[:i]...)
	switch rng.Intn(3) {
	case 0: // subtree replacement
		dst = appendRandom(dst, rng, nvars, 3, false, opt.ConstMin, opt.ConstMax)
	case 1: // constant jitter (or inject a constant leaf)
		if t[i].Op == OpConst {
			c := t[i]
			c.Value *= math.Exp(rng.Normal(0, 0.3))
			dst = append(dst, c)
		} else {
			dst = append(dst, gene{Op: OpConst, Value: opt.ConstMin + rng.Float64()*(opt.ConstMax-opt.ConstMin)})
		}
	default: // variable swap
		dst = append(dst, gene{Op: OpVar, VarIndex: rng.Intn(nvars)})
	}
	return append(dst, t[t.end(i):]...)
}
