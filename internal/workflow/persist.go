package workflow

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"besst/internal/perfmodel"
	"besst/internal/symreg"
)

// persisted is the on-disk bundle format for developed models: one
// entry per op, tagged with the model kind so either method round-trips.
type persisted struct {
	Method string                     `json:"method"`
	Models map[string]persistedModel  `json:"models"`
	Report map[string]persistedReport `json:"reports"`
}

type persistedModel struct {
	Kind string          `json:"kind"` // "symreg" | "table"
	Data json.RawMessage `json:"data"`
}

type persistedReport struct {
	ValidationMAPE float64 `json:"validationMAPE"`
	Expression     string  `json:"expression,omitempty"`
}

// Save serializes the developed models as JSON.
func (m *Models) Save(w io.Writer) error {
	out := persisted{
		Models: map[string]persistedModel{},
		Report: map[string]persistedReport{},
	}
	for op, model := range m.ByOp {
		var pm persistedModel
		switch v := model.(type) {
		case *symreg.Fitted:
			data, err := json.Marshal(v)
			if err != nil {
				return err
			}
			pm = persistedModel{Kind: "symreg", Data: data}
		case *perfmodel.Table:
			data, err := json.Marshal(v)
			if err != nil {
				return err
			}
			pm = persistedModel{Kind: "table", Data: data}
		default:
			return fmt.Errorf("workflow: cannot persist model type %T for op %q", model, op)
		}
		out.Models[op] = pm
	}
	for _, r := range m.Reports {
		out.Report[r.Op] = persistedReport{
			ValidationMAPE: r.ValidationMAPE,
			Expression:     r.Expression,
		}
		out.Method = r.Method.String()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a model bundle saved with Save.
func Load(r io.Reader) (*Models, error) {
	var in persisted
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	if len(in.Models) == 0 {
		return nil, fmt.Errorf("workflow: bundle contains no models")
	}
	out := &Models{ByOp: map[string]perfmodel.Model{}}
	method := Interpolation
	if in.Method == SymbolicRegression.String() {
		method = SymbolicRegression
	}
	ops := make([]string, 0, len(in.Models))
	for op := range in.Models {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		pm := in.Models[op]
		var model perfmodel.Model
		switch pm.Kind {
		case "symreg":
			f := &symreg.Fitted{}
			if err := json.Unmarshal(pm.Data, f); err != nil {
				return nil, fmt.Errorf("workflow: op %q: %w", op, err)
			}
			model = f
		case "table":
			t := &perfmodel.Table{}
			if err := json.Unmarshal(pm.Data, t); err != nil {
				return nil, fmt.Errorf("workflow: op %q: %w", op, err)
			}
			model = t
		default:
			return nil, fmt.Errorf("workflow: op %q has unknown model kind %q", op, pm.Kind)
		}
		out.ByOp[op] = model
		rep := ModelReport{Op: op, Method: method}
		if pr, ok := in.Report[op]; ok {
			rep.ValidationMAPE = pr.ValidationMAPE
			rep.Expression = pr.Expression
		}
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}
