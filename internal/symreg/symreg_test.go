package symreg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"besst/internal/perfmodel"
	"besst/internal/stats"
)

func TestEvalLeaves(t *testing.T) {
	c := &Node{Op: OpConst, Value: 3.5}
	if c.Eval(nil) != 3.5 {
		t.Fatal("const eval")
	}
	v := &Node{Op: OpVar, VarIndex: 1}
	if v.Eval([]float64{9, 7}) != 7 {
		t.Fatal("var eval")
	}
}

func TestEvalOperators(t *testing.T) {
	x := &Node{Op: OpVar, VarIndex: 0}
	two := &Node{Op: OpConst, Value: 2}
	cases := []struct {
		n    *Node
		in   float64
		want float64
	}{
		{&Node{Op: OpAdd, L: x, R: two}, 3, 5},
		{&Node{Op: OpSub, L: x, R: two}, 3, 1},
		{&Node{Op: OpMul, L: x, R: two}, 3, 6},
		{&Node{Op: OpDiv, L: x, R: two}, 3, 1.5},
		{&Node{Op: OpSq, L: x}, 3, 9},
		{&Node{Op: OpCube, L: x}, 2, 8},
		{&Node{Op: OpSqrt, L: x}, 16, 4},
		{&Node{Op: OpSqrt, L: x}, -16, 4}, // protected
		{&Node{Op: OpLog, L: x}, math.E - 1, 1},
	}
	for i, c := range cases {
		if got := c.n.Eval([]float64{c.in}); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestProtectedDivision(t *testing.T) {
	x := &Node{Op: OpVar, VarIndex: 0}
	zero := &Node{Op: OpConst, Value: 0}
	n := &Node{Op: OpDiv, L: x, R: zero}
	if got := n.Eval([]float64{5}); got != 1 {
		t.Fatalf("protected div = %v, want 1", got)
	}
}

func TestSizeDepth(t *testing.T) {
	tree := &Node{
		Op: OpAdd,
		L:  &Node{Op: OpSq, L: &Node{Op: OpVar}},
		R:  &Node{Op: OpConst, Value: 1},
	}
	if tree.Size() != 4 {
		t.Fatalf("size = %d", tree.Size())
	}
	if tree.Depth() != 3 {
		t.Fatalf("depth = %d", tree.Depth())
	}
}

func TestStringRendering(t *testing.T) {
	tree := &Node{
		Op: OpMul,
		L:  &Node{Op: OpConst, Value: 2},
		R:  &Node{Op: OpCube, L: &Node{Op: OpVar, VarIndex: 0}},
	}
	s := tree.String([]string{"epr"})
	if !strings.Contains(s, "cube(epr)") || !strings.Contains(s, "2") {
		t.Fatalf("render = %q", s)
	}
}

func TestRandomTreeRespectsDepth(t *testing.T) {
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		tr := appendRandom(nil, rng, 2, 5, i%2 == 0, 0, 2)
		if d := tr.depth(); d > 5 {
			t.Fatalf("depth %d exceeds limit", d)
		}
	}
}

func TestRandomTreeEvaluates(t *testing.T) {
	rng := stats.NewRNG(2)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		tr := appendRandom(nil, rng, 2, 4, false, 0, 2).node()
		v := tr.Eval([]float64{a, b})
		_ = v // any float (incl. Inf from overflow) is acceptable; must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := Dataset{VarNames: []string{"x"}}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, float64(i))
	}
	train, test := ds.Split(0.25, 42)
	if len(test.Y) != 25 || len(train.Y) != 75 {
		t.Fatalf("split sizes %d/%d", len(train.Y), len(test.Y))
	}
	// No overlap, full coverage.
	seen := map[float64]bool{}
	for _, y := range append(append([]float64{}, train.Y...), test.Y...) {
		if seen[y] {
			t.Fatalf("duplicate %v across split", y)
		}
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Fatal("split lost rows")
	}
	// Deterministic.
	train2, _ := ds.Split(0.25, 42)
	for i := range train.Y {
		if train.Y[i] != train2.Y[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	bad := Dataset{VarNames: []string{"x"}, X: [][]float64{{1, 2}}, Y: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad.Validate()
}

func TestMAPEHelper(t *testing.T) {
	expr := &Node{Op: OpVar, VarIndex: 0} // identity
	ds := Dataset{VarNames: []string{"x"}, X: [][]float64{{10}, {20}}, Y: []float64{10, 20}}
	if m := newEvaluator(ds).mape(appendNode(nil, expr)); m != 0 {
		t.Fatalf("identity MAPE = %v", m)
	}
}

func TestFitRecoversLinear(t *testing.T) {
	// y = 3x + 5, exact samples. GP should get close.
	ds := Dataset{VarNames: []string{"x"}}
	for i := 1; i <= 20; i++ {
		x := float64(i)
		ds.X = append(ds.X, []float64{x})
		ds.Y = append(ds.Y, 3*x+5)
	}
	f := Fit("lin", ds, Dataset{}, Options{Seed: 7, Generations: 60, PopSize: 200, Restarts: 2})
	if f.TrainMAPE > 5 {
		t.Fatalf("train MAPE %v too high for linear target (%s)", f.TrainMAPE, f)
	}
}

func TestFitRecoversCubic(t *testing.T) {
	// y = 2*x^3, the LULESH-like shape (epr^3 elements per rank).
	ds := Dataset{VarNames: []string{"epr"}}
	for _, x := range []float64{5, 10, 15, 20, 25} {
		ds.X = append(ds.X, []float64{x})
		ds.Y = append(ds.Y, 2*x*x*x)
	}
	f := Fit("cubic", ds, Dataset{}, Options{Seed: 3, Generations: 80, PopSize: 256, Restarts: 3})
	if f.TrainMAPE > 5 {
		t.Fatalf("train MAPE %v too high for cubic target (%s)", f.TrainMAPE, f)
	}
	// Extrapolation should keep growing (prediction region sanity).
	p25 := f.Predict(perfmodel.Params{"epr": 25})
	p30 := f.Predict(perfmodel.Params{"epr": 30})
	if p30 <= p25 {
		t.Fatalf("cubic fit does not extrapolate upward: %v -> %v", p25, p30)
	}
}

// TestFitNoFiniteMAPE fits data no expression scores finitely on: every
// target zero (no term enters the MAPE) and one NaN target (every MAPE
// is NaN). Fit must still return the first restart's expression and
// report the non-finite train MAPE instead of panicking.
func TestFitNoFiniteMAPE(t *testing.T) {
	cases := []struct {
		name string
		y    []float64
		want func(float64) bool
	}{
		{"all_zero", []float64{0, 0, 0, 0}, func(m float64) bool { return math.IsInf(m, 1) }},
		{"nan_target", []float64{1, 2, math.NaN(), 4}, math.IsNaN},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := Dataset{VarNames: []string{"x"}, X: [][]float64{{1}, {2}, {3}, {4}}, Y: tc.y}
			f := Fit("degenerate", ds, Dataset{}, Options{Seed: 1, Generations: 5, PopSize: 16, Restarts: 2})
			if f.Expr == nil {
				t.Fatal("Fit returned no expression")
			}
			if !tc.want(f.TrainMAPE) {
				t.Fatalf("TrainMAPE %v, want non-finite of the %s kind", f.TrainMAPE, tc.name)
			}
		})
	}
}

func TestFitTwoVariables(t *testing.T) {
	// y = x^2 + 10*log(1+r): two-parameter surface with noise.
	rng := stats.NewRNG(11)
	ds := Dataset{VarNames: []string{"x", "r"}}
	for _, x := range []float64{2, 4, 6, 8, 10} {
		for _, r := range []float64{8, 64, 216, 512, 1000} {
			y := x*x + 10*math.Log1p(r)
			y *= rng.LogNormal(0, 0.02)
			ds.X = append(ds.X, []float64{x, r})
			ds.Y = append(ds.Y, y)
		}
	}
	train, test := ds.Split(0.2, 5)
	f := Fit("surf", train, test, Options{Seed: 9})
	if f.TrainMAPE > 12 {
		t.Fatalf("train MAPE %v too high (%s)", f.TrainMAPE, f)
	}
	if math.IsNaN(f.TestMAPE) {
		t.Fatal("test MAPE should be computed")
	}
	if f.TestMAPE > 25 {
		t.Fatalf("test MAPE %v too high (%s)", f.TestMAPE, f)
	}
}

func TestFittedPredictNeverNegative(t *testing.T) {
	f := &Fitted{
		Expr:     &Node{Op: OpSub, L: &Node{Op: OpConst, Value: 1}, R: &Node{Op: OpVar, VarIndex: 0}},
		VarNames: []string{"x"},
	}
	if got := f.Predict(perfmodel.Params{"x": 100}); got != 0 {
		t.Fatalf("negative prediction leaked: %v", got)
	}
}

func TestFittedSampleVariance(t *testing.T) {
	f := &Fitted{
		Expr:          &Node{Op: OpConst, Value: 10},
		VarNames:      []string{"x"},
		ResidualSigma: 0.1,
	}
	rng := stats.NewRNG(13)
	var lo, hi int
	for i := 0; i < 500; i++ {
		v := f.Sample(perfmodel.Params{"x": 1}, rng)
		if v < 10 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatal("sample has no spread")
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	ds := Dataset{VarNames: []string{"x"}}
	for i := 1; i <= 10; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, float64(i*i))
	}
	opt := Options{Seed: 21, Generations: 20, PopSize: 64, Restarts: 1}
	a := Fit("a", ds, Dataset{}, opt)
	b := Fit("b", ds, Dataset{}, opt)
	if a.String() != b.String() {
		t.Fatalf("non-deterministic fit:\n%s\n%s", a, b)
	}
}

func TestFittedImplementsModel(t *testing.T) {
	var _ perfmodel.Model = &Fitted{}
}
