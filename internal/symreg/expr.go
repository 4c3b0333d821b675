// Package symreg implements the symbolic-regression modeling method of
// the BE-SST Model Development phase (Chenna et al., "Multi-parameter
// performance modeling using symbolic regression"): a genetic program
// evolves expression trees over the system parameters until they fit
// the calibration samples, and the fitted expression becomes the
// performance model polled during simulation. This is the method used
// for the paper's case-study experiments.
package symreg

import (
	"fmt"
	"math"
	"strings"
)

// Op enumerates expression-tree node kinds.
type Op int

// Node kinds. Const and Var are leaves; the rest are operators chosen
// to span the polynomial / surface-area / logarithmic scaling shapes
// coarse-grained HPC runtime models take.
const (
	OpConst Op = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpDiv // protected: |denominator| < 1e-9 evaluates to 1
	OpSq
	OpCube
	OpSqrt // protected: sqrt(|x|)
	OpLog  // protected: log(1+|x|)
)

var binaryOps = []Op{OpAdd, OpSub, OpMul, OpDiv}
var unaryOps = []Op{OpSq, OpCube, OpSqrt, OpLog}

// Node is one expression-tree node. Leaves carry Value (OpConst) or
// VarIndex (OpVar); operators carry children.
type Node struct {
	Op       Op
	Value    float64
	VarIndex int
	L, R     *Node // R nil for unary ops
}

// Eval evaluates the tree on one input vector.
func (n *Node) Eval(vars []float64) float64 {
	switch n.Op {
	case OpConst:
		return n.Value
	case OpVar:
		return vars[n.VarIndex]
	case OpAdd:
		return n.L.Eval(vars) + n.R.Eval(vars)
	case OpSub:
		return n.L.Eval(vars) - n.R.Eval(vars)
	case OpMul:
		return n.L.Eval(vars) * n.R.Eval(vars)
	case OpDiv:
		d := n.R.Eval(vars)
		if math.Abs(d) < 1e-9 {
			return 1
		}
		return n.L.Eval(vars) / d
	case OpSq:
		v := n.L.Eval(vars)
		return v * v
	case OpCube:
		v := n.L.Eval(vars)
		return v * v * v
	case OpSqrt:
		return math.Sqrt(math.Abs(n.L.Eval(vars)))
	case OpLog:
		return math.Log1p(math.Abs(n.L.Eval(vars)))
	default:
		panic(fmt.Sprintf("symreg: unknown op %d", n.Op))
	}
}

// Size returns the node count of the tree (parsimony pressure input).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	return 1 + n.L.Size() + n.R.Size()
}

// Depth returns the height of the tree.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.L.Depth(), n.R.Depth()
	if r > l {
		l = r
	}
	return 1 + l
}

// String renders the expression with the given variable names.
func (n *Node) String(varNames []string) string {
	var b strings.Builder
	n.render(&b, varNames)
	return b.String()
}

func (n *Node) render(b *strings.Builder, names []string) {
	switch n.Op {
	case OpConst:
		fmt.Fprintf(b, "%.4g", n.Value)
	case OpVar:
		if n.VarIndex < len(names) {
			b.WriteString(names[n.VarIndex])
		} else {
			fmt.Fprintf(b, "x%d", n.VarIndex)
		}
	case OpAdd, OpSub, OpMul, OpDiv:
		op := map[Op]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[n.Op]
		b.WriteByte('(')
		n.L.render(b, names)
		b.WriteByte(' ')
		b.WriteString(op)
		b.WriteByte(' ')
		n.R.render(b, names)
		b.WriteByte(')')
	case OpSq, OpCube, OpSqrt, OpLog:
		fn := map[Op]string{OpSq: "sq", OpCube: "cube", OpSqrt: "sqrt", OpLog: "log1p"}[n.Op]
		b.WriteString(fn)
		b.WriteByte('(')
		n.L.render(b, names)
		b.WriteByte(')')
	}
}
