package symreg

import (
	"math"

	"besst/internal/stats"
)

// evaluator computes GP fitness over one dataset held column-major:
// each genome node is evaluated over the whole column in one loop, so
// a fitness call runs one tight loop per node instead of one recursive
// Node.Eval per row. A variable-free subtree folds to a scalar and is
// never expanded into a column. The per-row arithmetic is exactly
// Node.Eval's, and MAPE sums the rows in dataset order, so every
// fitness is bit-identical to evaluating the tree row by row.
type evaluator struct {
	x    [][]float64 // x[j][i]: variable j of row i
	y    []float64
	zero []bool // rows whose zero target MAPE skips
	n    int    // rows MAPE averages over

	// Evaluation stack, reused across calls: bufs[k] is the column
	// storage of stack slot k.
	stack []operand
	bufs  [][]float64
}

// operand is one evaluated subtree: a column, or a scalar c when the
// subtree has no variables (col nil).
type operand struct {
	col []float64
	c   float64
}

func newEvaluator(ds Dataset) *evaluator {
	e := &evaluator{
		x:    make([][]float64, len(ds.VarNames)),
		y:    ds.Y,
		zero: make([]bool, len(ds.Y)),
	}
	for j := range e.x {
		e.x[j] = make([]float64, len(ds.X))
		for i, row := range ds.X {
			e.x[j][i] = row[j]
		}
	}
	for i, y := range ds.Y {
		e.zero[i] = stats.ApproxEqual(y, 0, 0)
		if !e.zero[i] {
			e.n++
		}
	}
	return e
}

// mape returns the mean absolute percentage error of g on the
// evaluator's dataset, or +Inf when any prediction is NaN or infinite
// or every target is zero. It is the GP fitness (lower is better).
func (e *evaluator) mape(g genome) float64 {
	if e.n == 0 {
		return math.Inf(1)
	}
	p := e.eval(g)
	var sum float64
	if p.col == nil {
		if math.IsNaN(p.c) || math.IsInf(p.c, 0) {
			return math.Inf(1)
		}
		for i, y := range e.y {
			if !e.zero[i] {
				sum += math.Abs((p.c - y) / y)
			}
		}
		return 100 * sum / float64(e.n)
	}
	zero := e.zero[:len(p.col)]
	y := e.y[:len(p.col)]
	for i, pred := range p.col {
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return math.Inf(1)
		}
		if !zero[i] {
			sum += math.Abs((pred - y[i]) / y[i])
		}
	}
	return 100 * sum / float64(e.n)
}

// eval evaluates g over every row. Preorder read backwards is a
// postorder with each right subtree before its left, so when a binary
// node is reached its left operand is on top of the stack and its
// right operand just below.
func (e *evaluator) eval(g genome) operand {
	sp := 0
	for i := len(g) - 1; i >= 0; i-- {
		switch op := g[i].Op; arity(op) {
		case 0:
			if sp == len(e.stack) {
				e.stack = append(e.stack, operand{})
			}
			if op == OpVar {
				e.stack[sp] = operand{col: e.x[g[i].VarIndex]}
			} else {
				e.stack[sp] = operand{c: g[i].Value}
			}
			sp++
		case 1:
			e.stack[sp-1] = unaryColumn(op, e.buf(sp-1), e.stack[sp-1])
		default:
			sp--
			e.stack[sp-1] = binaryColumn(op, e.buf(sp-1), e.stack[sp], e.stack[sp-1])
		}
	}
	return e.stack[0]
}

// buf returns the column storage of stack slot k. An operator writes
// its result into the lowest slot its operands occupy, so the output
// may alias that operand's column: each element is read before it is
// written.
func (e *evaluator) buf(k int) []float64 {
	for len(e.bufs) <= k {
		e.bufs = append(e.bufs, make([]float64, len(e.y)))
	}
	return e.bufs[k]
}

// unaryColumn applies a unary op to v, writing a column result to out.
func unaryColumn(op Op, out []float64, v operand) operand {
	if v.col == nil {
		return operand{c: unaryScalar(op, v.c)}
	}
	in := v.col
	out = out[:len(in)]
	switch op {
	case OpSq:
		for i, x := range in {
			out[i] = x * x
		}
	case OpCube:
		for i, x := range in {
			out[i] = x * x * x
		}
	case OpSqrt:
		for i, x := range in {
			out[i] = math.Sqrt(math.Abs(x))
		}
	default: // OpLog
		for i, x := range in {
			out[i] = math.Log1p(math.Abs(x))
		}
	}
	return operand{col: out}
}

func unaryScalar(op Op, x float64) float64 {
	switch op {
	case OpSq:
		return x * x
	case OpCube:
		return x * x * x
	case OpSqrt:
		return math.Sqrt(math.Abs(x))
	default: // OpLog
		return math.Log1p(math.Abs(x))
	}
}

// binaryColumn applies a binary op to l and r, writing a column result
// to out. Division keeps Node.Eval's protection: a denominator below
// 1e-9 in magnitude yields 1.
func binaryColumn(op Op, out []float64, l, r operand) operand {
	switch {
	case l.col == nil && r.col == nil:
		return operand{c: binaryScalar(op, l.c, r.c)}
	case l.col == nil:
		out = out[:len(r.col)]
		rc := r.col
		switch op {
		case OpAdd:
			for i, b := range rc {
				out[i] = l.c + b
			}
		case OpSub:
			for i, b := range rc {
				out[i] = l.c - b
			}
		case OpMul:
			for i, b := range rc {
				out[i] = l.c * b
			}
		default: // OpDiv
			for i, b := range rc {
				out[i] = protectedDiv(l.c, b)
			}
		}
	case r.col == nil:
		out = out[:len(l.col)]
		lc := l.col
		switch op {
		case OpAdd:
			for i, a := range lc {
				out[i] = a + r.c
			}
		case OpSub:
			for i, a := range lc {
				out[i] = a - r.c
			}
		case OpMul:
			for i, a := range lc {
				out[i] = a * r.c
			}
		default: // OpDiv
			if math.Abs(r.c) < 1e-9 {
				return operand{c: 1}
			}
			for i, a := range lc {
				out[i] = a / r.c
			}
		}
	default:
		out = out[:len(l.col)]
		lc, rc := l.col, r.col[:len(l.col)]
		switch op {
		case OpAdd:
			for i, a := range lc {
				out[i] = a + rc[i]
			}
		case OpSub:
			for i, a := range lc {
				out[i] = a - rc[i]
			}
		case OpMul:
			for i, a := range lc {
				out[i] = a * rc[i]
			}
		default: // OpDiv
			for i, a := range lc {
				out[i] = protectedDiv(a, rc[i])
			}
		}
	}
	return operand{col: out}
}

func binaryScalar(op Op, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	default: // OpDiv
		return protectedDiv(a, b)
	}
}

func protectedDiv(a, b float64) float64 {
	if math.Abs(b) < 1e-9 {
		return 1
	}
	return a / b
}
