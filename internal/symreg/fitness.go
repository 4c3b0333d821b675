package symreg

import (
	"cmp"
	"math"
	"slices"

	"besst/internal/stats"
)

// evaluator computes GP fitness over one dataset held column-major:
// each genome node is evaluated over the whole column in one loop, so
// a fitness call runs one tight loop per node instead of one recursive
// Node.Eval per row. A variable-free subtree folds to a scalar and is
// never expanded into a column. Columns hold one entry per distinct
// input row: benchmark data times each configuration several times,
// and rows with the same inputs get the same prediction. The per-row
// arithmetic is exactly Node.Eval's, and MAPE sums the rows in dataset
// order, so every fitness is bit-identical to evaluating the tree row
// by row.
type evaluator struct {
	rows  int         // distinct input rows: the length of every column
	x     [][]float64 // x[j][r]: variable j of distinct input row r
	terms []term      // the rows MAPE sums: non-zero targets, in dataset order

	// unary[op-OpSq][j] is unary op applied to column x[j], computed
	// once: a unary node directly over a variable reads it instead of
	// recomputing the same column for every genome.
	unary [OpLog - OpSq + 1][][]float64

	// Evaluation stack, reused across calls: bufs[k] is the column
	// storage of stack slot k.
	stack []operand
	bufs  [][]float64
}

// term is one dataset row with a non-zero target: its distinct input
// row and its target.
type term struct {
	row int32
	y   float64
}

// operand is one evaluated subtree: a column, or a scalar c when the
// subtree has no variables (col nil).
type operand struct {
	col []float64
	c   float64
}

func newEvaluator(ds Dataset) *evaluator {
	row, k := distinctRows(ds.X)
	// The variable columns and the unary columns over them share one
	// allocation.
	nvars := len(ds.VarNames)
	cols := make([][]float64, int(OpLog-OpSq+2)*nvars)
	data := make([]float64, len(cols)*k)
	for c := range cols {
		cols[c] = data[c*k : (c+1)*k : (c+1)*k]
	}
	e := &evaluator{rows: k, x: cols[:nvars]}
	for i, r := range row {
		for j, col := range e.x {
			col[r] = ds.X[i][j]
		}
	}
	for op := OpSq; op <= OpLog; op++ {
		u := cols[int(op-OpSq+1)*nvars:][:nvars]
		for j, col := range e.x {
			unaryColumn(op, u[j], operand{col: col})
		}
		e.unary[op-OpSq] = u
	}
	e.terms = make([]term, 0, len(ds.Y))
	for i, y := range ds.Y {
		if !stats.ApproxEqual(y, 0, 0) {
			e.terms = append(e.terms, term{row: row[i], y: y})
		}
	}
	return e
}

// distinctRows numbers the distinct rows of xs, comparing every value
// by its exact bits, so +0 and -0, or NaNs with different payloads, are
// different rows: row[i] is row i's number and k the number of
// distinct rows.
func distinctRows(xs [][]float64) (row []int32, k int) {
	order := make([]int32, len(xs))
	for i := range order {
		order[i] = int32(i)
	}
	compare := func(a, b int32) int {
		for j, v := range xs[a] {
			if c := cmp.Compare(math.Float64bits(v), math.Float64bits(xs[b][j])); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(order, compare)
	row = make([]int32, len(xs))
	for n, i := range order {
		if n > 0 && compare(order[n-1], i) != 0 {
			k++
		}
		row[i] = int32(k)
	}
	if len(xs) > 0 {
		k++
	}
	return row, k
}

// mape returns the mean absolute percentage error of g on the
// evaluator's dataset, or +Inf when any prediction is NaN or infinite
// or every target is zero. It is the GP fitness (lower is better).
// Every distinct row's prediction belongs to some dataset row, so
// checking the distinct predictions finds the same non-finite ones.
func (e *evaluator) mape(g genome) float64 {
	if len(e.terms) == 0 {
		return math.Inf(1)
	}
	p := e.eval(g)
	var sum float64
	if p.col == nil {
		if math.IsNaN(p.c) || math.IsInf(p.c, 0) {
			return math.Inf(1)
		}
		for _, t := range e.terms {
			sum += math.Abs((p.c - t.y) / t.y)
		}
		return 100 * sum / float64(len(e.terms))
	}
	for _, pred := range p.col {
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return math.Inf(1)
		}
	}
	for _, t := range e.terms {
		sum += math.Abs((p.col[t.row] - t.y) / t.y)
	}
	return 100 * sum / float64(len(e.terms))
}

// eval evaluates g over every distinct row. Preorder read backwards is a
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
			if g[i+1].Op == OpVar {
				e.stack[sp-1] = operand{col: e.unary[op-OpSq][g[i+1].VarIndex]}
			} else {
				e.stack[sp-1] = unaryColumn(op, e.buf(sp-1), e.stack[sp-1])
			}
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
		e.bufs = append(e.bufs, make([]float64, e.rows))
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
