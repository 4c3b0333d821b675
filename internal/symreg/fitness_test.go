package symreg

import (
	"math"
	"testing"

	"besst/internal/stats"
)

// rowMAPE is the row-wise reference fitness: Node.Eval on one row at a
// time, summed in row order. The column-wise evaluator must reproduce
// it bit for bit.
func rowMAPE(expr *Node, ds Dataset) float64 {
	var sum float64
	n := 0
	for i, row := range ds.X {
		pred := expr.Eval(row)
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return math.Inf(1)
		}
		if stats.ApproxEqual(ds.Y[i], 0, 0) {
			continue
		}
		sum += math.Abs((pred - ds.Y[i]) / ds.Y[i])
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return 100 * sum / float64(n)
}

// randomDataset draws rows whose values span zeros (protected division
// by a variable), negatives, and magnitudes large enough to overflow
// under nested cubes, with some zero targets.
func randomDataset(rng *stats.RNG, nvars, rows int) Dataset {
	ds := Dataset{VarNames: make([]string, nvars)}
	for i := 0; i < rows; i++ {
		row := make([]float64, nvars)
		for j := range row {
			switch rng.Intn(6) {
			case 0:
				row[j] = 0
			case 1:
				row[j] = -rng.Float64() * 10
			case 2:
				row[j] = 1e80 * rng.Float64()
			default:
				row[j] = rng.Float64() * 3
			}
		}
		y := rng.Float64() * 5
		if rng.Intn(5) == 0 {
			y = 0
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func TestColumnFitnessMatchesRowwise(t *testing.T) {
	rng := stats.NewRNG(17)
	var nonFinite, finite int
	for k := 0; k < 500; k++ {
		nvars := 1 + rng.Intn(3)
		ds := randomDataset(rng, nvars, 1+rng.Intn(40))
		// One evaluator per dataset, as in a GP restart: its reused
		// stack must not leak state from one tree into the next.
		e := newEvaluator(ds)
		for tree := 0; tree < 4; tree++ {
			g := appendRandom(nil, rng, nvars, 2+rng.Intn(6), tree%2 == 0, 0, 2)
			got, want := e.mape(g), rowMAPE(g.node(), ds)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d/%d %s: column MAPE %v, row-wise %v", k, tree, g.node().String(ds.VarNames), got, want)
			}
			if math.IsInf(got, 1) {
				nonFinite++
			} else {
				finite++
			}
		}
	}
	if nonFinite == 0 || finite == 0 {
		t.Fatalf("property draws did not cover both outcomes: %d finite, %d +Inf", finite, nonFinite)
	}
}

func TestColumnFitnessEdgeCases(t *testing.T) {
	x := &Node{Op: OpVar}
	c := func(v float64) *Node { return &Node{Op: OpConst, Value: v} }
	ds := Dataset{
		VarNames: []string{"x"},
		X:        [][]float64{{2}, {0}, {1e-12}, {-3}, {1e120}},
		Y:        []float64{1, 0, 2, 4, 5},
	}
	cases := []struct {
		name string
		expr *Node
		inf  bool
	}{
		{"protected div by variable", &Node{Op: OpDiv, L: c(3), R: x}, false},
		{"protected div by zero constant folds to 1", &Node{Op: OpDiv, L: x, R: c(0)}, false},
		{"constant tree folds to a scalar", &Node{Op: OpSqrt, L: &Node{Op: OpSub, L: c(1), R: c(5)}}, false},
		{"overflow to Inf", &Node{Op: OpCube, L: &Node{Op: OpCube, L: x}}, true},
		{"Inf minus Inf is NaN", &Node{Op: OpSub, L: &Node{Op: OpCube, L: x}, R: &Node{Op: OpCube, L: x}}, true},
		{"constant Inf", &Node{Op: OpCube, L: &Node{Op: OpCube, L: &Node{Op: OpCube, L: c(1e50)}}}, true},
	}
	for _, tc := range cases {
		got := newEvaluator(ds).mape(appendNode(nil, tc.expr))
		want := rowMAPE(tc.expr, ds)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: column MAPE %v, row-wise %v", tc.name, got, want)
		}
		if math.IsInf(got, 1) != tc.inf {
			t.Errorf("%s: MAPE %v, want +Inf %v", tc.name, got, tc.inf)
		}
	}
	allZero := Dataset{VarNames: []string{"x"}, X: [][]float64{{1}, {2}}, Y: []float64{0, 0}}
	if got := newEvaluator(allZero).mape(genome{{Op: OpVar}}); !math.IsInf(got, 1) {
		t.Errorf("all-zero targets: MAPE %v, want +Inf", got)
	}
}

func TestGenomeMatchesNodeShape(t *testing.T) {
	rng := stats.NewRNG(23)
	for k := 0; k < 500; k++ {
		g := appendRandom(nil, rng, 3, 2+rng.Intn(6), k%2 == 0, 0, 2)
		n := g.node()
		if len(g) != n.Size() || g.depth() != n.Depth() || g.end(0) != len(g) {
			t.Fatalf("genome len/depth/end %d/%d/%d, tree size/depth %d/%d", len(g), g.depth(), g.end(0), n.Size(), n.Depth())
		}
		back := appendNode(nil, n)
		if len(back) != len(g) {
			t.Fatalf("round trip changed length %d -> %d", len(g), len(back))
		}
		for i := range g {
			if back[i] != g[i] {
				t.Fatalf("round trip changed gene %d: %+v -> %+v", i, g[i], back[i])
			}
		}
	}
}
