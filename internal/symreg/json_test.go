package symreg

import (
	"encoding/json"
	"math"
	"testing"

	"besst/internal/perfmodel"
)

func fittedFixture() *Fitted {
	// 2*cube(x0) + x1
	expr := &Node{
		Op: OpAdd,
		L: &Node{Op: OpMul,
			L: &Node{Op: OpConst, Value: 2},
			R: &Node{Op: OpCube, L: &Node{Op: OpVar, VarIndex: 0}},
		},
		R: &Node{Op: OpVar, VarIndex: 1},
	}
	return &Fitted{
		Label:         "fix",
		Expr:          expr,
		VarNames:      []string{"a", "b"},
		TrainMAPE:     3.5,
		TestMAPE:      math.NaN(),
		ResidualSigma: 0.07,
		XScale:        []float64{2, 10},
		YScale:        5,
	}
}

func TestFittedJSONRoundTrip(t *testing.T) {
	f := fittedFixture()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Fitted
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "fix" || back.TrainMAPE != 3.5 || !math.IsNaN(back.TestMAPE) {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.ResidualSigma != 0.07 || back.YScale != 5 {
		t.Fatal("scales lost")
	}
	for _, p := range []perfmodel.Params{{"a": 1, "b": 2}, {"a": 7, "b": 0}, {"a": 100, "b": -3}} {
		if f.Predict(p) != back.Predict(p) {
			t.Fatalf("prediction differs at %v", p.Key())
		}
	}
	if back.String() != f.String() {
		t.Fatalf("expression changed: %s vs %s", back.String(), f.String())
	}
}

func TestFittedJSONRejectsBadShapes(t *testing.T) {
	cases := []string{
		`{"label":"x","vars":["a"],"expr":{"op":"wat"}}`,
		`{"label":"x","vars":["a"],"expr":null}`,
		`{"label":"x","vars":["a"],"expr":{"op":"add","l":{"op":"const"}}}`,       // binary missing child
		`{"label":"x","vars":["a"],"expr":{"op":"sq"}}`,                           // unary missing child
		`{"label":"x","vars":["a"],"expr":{"op":"const","l":{"op":"const"}}}`,     // leaf with child
		`{"label":"x","vars":["a","b"],"xScale":[1],"expr":{"op":"var","var":0}}`, // scale mismatch
		`{"label":"x","vars":["epr"],"expr":{"op":"var","var":3}}`,                // var index past vars
		`{"label":"x","vars":["a"],"expr":{"op":"var","var":-1}}`,                 // negative var index
		`{"label":"x","expr":{"op":"var"}}`,                                       // var with no vars
	}
	for i, c := range cases {
		var f Fitted
		if err := json.Unmarshal([]byte(c), &f); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestFitThenRoundTripPreservesEverything(t *testing.T) {
	ds := Dataset{VarNames: []string{"x"}}
	for i := 1; i <= 12; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, 4*float64(i*i)+1)
	}
	f := Fit("sq", ds, Dataset{}, Options{Seed: 5, Generations: 30, PopSize: 64, Restarts: 1})
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Fitted
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for x := 1.0; x <= 20; x += 2.5 {
		p := perfmodel.Params{"x": x}
		if f.Predict(p) != back.Predict(p) {
			t.Fatalf("prediction differs at x=%v", x)
		}
	}
}

// FuzzFittedJSON feeds arbitrary bytes to the model decoder: decoding
// must never panic, and every model it accepts must Predict at its own
// variables without panicking.
func FuzzFittedJSON(f *testing.F) {
	fix, err := json.Marshal(fittedFixture())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fix)
	f.Add([]byte(`{"label":"x","vars":["epr"],"expr":{"op":"var","var":3}}`))
	f.Add([]byte(`{"label":"x","vars":["a"],"xScale":[0],"yScale":-2,"expr":{"op":"div","l":{"op":"var"},"r":{"op":"const"}}}`))
	f.Add([]byte(`{"label":"x","vars":["a","b"],"expr":{"op":"log1p","l":{"op":"sqrt","l":{"op":"var","var":1}}}}`))
	f.Add([]byte(`{"vars":[],"expr":{"op":"const","value":1e308}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Fitted
		if json.Unmarshal(data, &m) != nil {
			return
		}
		p := perfmodel.Params{}
		for i, n := range m.VarNames {
			p[n] = float64(i) + 0.5
		}
		if v := m.Predict(p); math.IsNaN(v) || v < 0 {
			t.Fatalf("Predict = %v, want a non-negative number", v)
		}
	})
}
