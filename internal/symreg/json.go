package symreg

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonNode is the serialized form of an expression node.
type jsonNode struct {
	Op    string    `json:"op"`
	Value float64   `json:"value,omitempty"`
	Var   int       `json:"var,omitempty"`
	L     *jsonNode `json:"l,omitempty"`
	R     *jsonNode `json:"r,omitempty"`
}

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpSq: "sq", OpCube: "cube",
	OpSqrt: "sqrt", OpLog: "log1p",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

func toJSONNode(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	return &jsonNode{
		Op:    opNames[n.Op],
		Value: n.Value,
		Var:   n.VarIndex,
		L:     toJSONNode(n.L),
		R:     toJSONNode(n.R),
	}
}

// fromJSONNode decodes an expression over nvars variables.
func fromJSONNode(j *jsonNode, nvars int) (*Node, error) {
	if j == nil {
		return nil, nil
	}
	op, ok := opByName[j.Op]
	if !ok {
		return nil, fmt.Errorf("symreg: unknown op %q", j.Op)
	}
	l, err := fromJSONNode(j.L, nvars)
	if err != nil {
		return nil, err
	}
	r, err := fromJSONNode(j.R, nvars)
	if err != nil {
		return nil, err
	}
	n := &Node{Op: op, Value: j.Value, VarIndex: j.Var, L: l, R: r}
	switch op {
	case OpConst, OpVar:
		if l != nil || r != nil {
			return nil, fmt.Errorf("symreg: leaf %q with children", j.Op)
		}
		if op == OpVar && (j.Var < 0 || j.Var >= nvars) {
			return nil, fmt.Errorf("symreg: variable index %d outside %d variables", j.Var, nvars)
		}
	case OpSq, OpCube, OpSqrt, OpLog:
		if l == nil || r != nil {
			return nil, fmt.Errorf("symreg: unary %q with wrong arity", j.Op)
		}
	default:
		if l == nil || r == nil {
			return nil, fmt.Errorf("symreg: binary %q with missing child", j.Op)
		}
	}
	return n, nil
}

// jsonFitted is the serialized form of a fitted model. NaN MAPEs are
// encoded as -1 (JSON has no NaN).
type jsonFitted struct {
	Label         string    `json:"label"`
	VarNames      []string  `json:"vars"`
	Expr          *jsonNode `json:"expr"`
	TrainMAPE     float64   `json:"trainMAPE"`
	TestMAPE      float64   `json:"testMAPE"`
	ResidualSigma float64   `json:"residualSigma"`
	XScale        []float64 `json:"xScale,omitempty"`
	YScale        float64   `json:"yScale,omitempty"`
}

func encMAPE(v float64) float64 {
	if math.IsNaN(v) {
		return -1
	}
	return v
}

func decMAPE(v float64) float64 {
	if v < 0 {
		return math.NaN()
	}
	return v
}

// MarshalJSON implements json.Marshaler.
func (f *Fitted) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonFitted{
		Label:         f.Label,
		VarNames:      f.VarNames,
		Expr:          toJSONNode(f.Expr),
		TrainMAPE:     encMAPE(f.TrainMAPE),
		TestMAPE:      encMAPE(f.TestMAPE),
		ResidualSigma: f.ResidualSigma,
		XScale:        f.XScale,
		YScale:        f.YScale,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Fitted) UnmarshalJSON(data []byte) error {
	var j jsonFitted
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	expr, err := fromJSONNode(j.Expr, len(j.VarNames))
	if err != nil {
		return err
	}
	if expr == nil {
		return fmt.Errorf("symreg: model %q has no expression", j.Label)
	}
	if j.XScale != nil && len(j.XScale) != len(j.VarNames) {
		return fmt.Errorf("symreg: model %q scale/vars mismatch", j.Label)
	}
	*f = Fitted{
		Label:         j.Label,
		VarNames:      j.VarNames,
		Expr:          expr,
		TrainMAPE:     decMAPE(j.TrainMAPE),
		TestMAPE:      decMAPE(j.TestMAPE),
		ResidualSigma: j.ResidualSigma,
		XScale:        j.XScale,
		YScale:        j.YScale,
	}
	return nil
}
