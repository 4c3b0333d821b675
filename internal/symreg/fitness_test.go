package symreg

import (
	"fmt"
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
		for tree := 0; tree < 6; tree++ {
			var g genome
			switch tree {
			case 4: // a unary node directly over a variable: the precomputed column
				g = genome{{Op: unaryOps[rng.Intn(len(unaryOps))]}, {Op: OpVar, VarIndex: rng.Intn(nvars)}}
			case 5: // precomputed columns as operands of a binary and a unary node
				g = genome{{Op: binaryOps[rng.Intn(len(binaryOps))]},
					{Op: unaryOps[rng.Intn(len(unaryOps))]}, {Op: unaryOps[rng.Intn(len(unaryOps))]}, {Op: OpVar, VarIndex: rng.Intn(nvars)},
					{Op: unaryOps[rng.Intn(len(unaryOps))]}, {Op: OpVar, VarIndex: rng.Intn(nvars)}}
			default:
				g = appendRandom(nil, rng, nvars, 2+rng.Intn(6), tree%2 == 0)
			}
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
		{"sq of a variable", &Node{Op: OpSq, L: x}, false},
		{"cube of a variable overflows", &Node{Op: OpCube, L: x}, true},
		{"sqrt of a variable", &Node{Op: OpSqrt, L: x}, false},
		{"log of a variable", &Node{Op: OpLog, L: x}, false},
		{"sq over sqrt of a variable", &Node{Op: OpSq, L: &Node{Op: OpSqrt, L: x}}, false},
		{"variable columns as binary operands", &Node{Op: OpDiv, L: &Node{Op: OpLog, L: x}, R: &Node{Op: OpSq, L: x}}, false},
	}
	// One evaluator for every case, twice over: an operator reading a
	// precomputed variable column must never write into it.
	shared := newEvaluator(ds)
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			got := shared.mape(appendNode(nil, tc.expr))
			want := rowMAPE(tc.expr, ds)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("pass %d %s: column MAPE %v, row-wise %v", pass, tc.name, got, want)
			}
			if math.IsInf(got, 1) != tc.inf {
				t.Errorf("pass %d %s: MAPE %v, want +Inf %v", pass, tc.name, got, tc.inf)
			}
		}
	}
	allZero := Dataset{VarNames: []string{"x"}, X: [][]float64{{1}, {2}}, Y: []float64{0, 0}}
	if got := newEvaluator(allZero).mape(genome{{Op: OpVar}}); !math.IsInf(got, 1) {
		t.Errorf("all-zero targets: MAPE %v, want +Inf", got)
	}
}

// TestParentIndexExactMatch pins the GP's fitness reuse: a child takes
// a parent's fitness only when their genes are equal field for field
// (Value compared by bits), never on a hash match alone.
func TestParentIndexExactMatch(t *testing.T) {
	ds := Dataset{VarNames: []string{"x"}, X: [][]float64{{1}, {2}, {-3}}, Y: []float64{1, 2, 4}}
	e := newEvolver(ds, Options{PopSize: 5}.withDefaults())
	twoX := genome{{Op: OpMul}, {Op: OpConst, Value: 2}, {Op: OpVar}}
	negZero := genome{{Op: OpAdd}, {Op: OpVar}, {Op: OpConst, Value: math.Copysign(0, -1)}}
	posZero := genome{{Op: OpAdd}, {Op: OpVar}, {Op: OpConst, Value: 0}}
	sqX := genome{{Op: OpSq}, {Op: OpVar}}
	// Parents carry sentinel fitnesses no real score produces, so a
	// copied fitness is told apart from a computed one. The last two
	// lie about their hashes, so a child with those hashes meets a
	// parent with different genes: x + 0 with a -0 constant claims the
	// hash of x + 0, and the constant 2 claims sq(x)'s.
	pop := []individual{
		{g: twoX, hash: twoX.hash(), fitness: -1, rawMAPE: -1},
		{g: negZero, hash: negZero.hash(), fitness: -2, rawMAPE: -2},
		{g: twoX, hash: twoX.hash(), fitness: -1, rawMAPE: -1},
		{g: negZero, hash: posZero.hash(), fitness: -3, rawMAPE: -3},
		{g: twoX[1:2], hash: sqX.hash(), fitness: -4, rawMAPE: -4},
	}
	e.parents.reset(pop)

	child := func(g genome) individual {
		c := individual{g: append(genome(nil), g...)}
		e.scoreChild(&c)
		if c.hash != g.hash() {
			t.Errorf("%s: child hash %#x, want %#x", g.node().String(ds.VarNames), c.hash, g.hash())
		}
		return c
	}
	if c := child(twoX); c.fitness != -1 || c.rawMAPE != -1 {
		t.Errorf("equal genes: fitness %v/%v, want the parent's -1", c.fitness, c.rawMAPE)
	}
	if c := child(negZero); c.fitness != -2 {
		t.Errorf("equal genes with a -0 constant: fitness %v, want the parent's -2", c.fitness)
	}
	for _, g := range []genome{posZero, sqX, twoX[1:2]} {
		c := child(g)
		want := individual{g: g}
		e.score(&want)
		if c.fitness < 0 || math.Float64bits(c.fitness) != math.Float64bits(want.fitness) ||
			math.Float64bits(c.rawMAPE) != math.Float64bits(want.rawMAPE) {
			t.Errorf("%v: fitness %v/%v, want it scored %v/%v", g, c.fitness, c.rawMAPE, want.fitness, want.rawMAPE)
		}
	}
	for _, g := range []genome{posZero, sqX} {
		if p := e.parents.find(g, g.hash()); p != nil {
			t.Errorf("a hash match on different genes: %v found %v", g, p.g)
		}
	}
}

func TestGenomeMatchesNodeShape(t *testing.T) {
	rng := stats.NewRNG(23)
	for k := 0; k < 500; k++ {
		g := appendRandom(nil, rng, 3, 2+rng.Intn(6), k%2 == 0)
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

// repeatedDataset builds a case-study-shaped dataset: k distinct input
// rows, each repeated s times in shuffled order, every repeat with its
// own target. The distinct rows include a +0/-0 pair (different rows
// by their bits) and, last, a row of 1e120 whose cube overflows; that
// row occurs only with zero targets, so only the non-finite check, not
// the MAPE sum, sees it.
func repeatedDataset(rng *stats.RNG, nvars, k, s int) Dataset {
	distinct := [][]float64{make([]float64, nvars), make([]float64, nvars)}
	distinct[1][0] = math.Copysign(0, -1)
	seen := map[string]bool{}
	for _, row := range distinct {
		seen[fmt.Sprint(bitsOf(row))] = true
	}
	for len(distinct) < k-1 {
		row := randomDataset(rng, nvars, 1).X[0]
		if key := fmt.Sprint(bitsOf(row)); !seen[key] {
			seen[key] = true
			distinct = append(distinct, row)
		}
	}
	overflow := make([]float64, nvars)
	for j := range overflow {
		overflow[j] = 1e120
	}
	distinct = append(distinct, overflow)

	ds := Dataset{VarNames: make([]string, nvars)}
	for _, i := range rng.Perm(k * s) {
		r := i % k
		y := rng.Float64() * 5
		if r == k-1 || rng.Intn(5) == 0 {
			y = 0
		}
		ds.X = append(ds.X, distinct[r])
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func bitsOf(row []float64) []uint64 {
	b := make([]uint64, len(row))
	for j, v := range row {
		b[j] = math.Float64bits(v)
	}
	return b
}

// TestColumnFitnessRepeatedRows scores random trees on datasets whose
// input rows repeat, as timing samples of one configuration do: the
// evaluator computes one column entry per distinct input row, and its
// MAPE must still equal the row-wise reference bit for bit.
func TestColumnFitnessRepeatedRows(t *testing.T) {
	rng := stats.NewRNG(29)
	var nonFinite, finite int
	for c := 0; c < 60; c++ {
		nvars, k, s := 1+rng.Intn(3), 4+rng.Intn(22), 2+rng.Intn(9)
		ds := repeatedDataset(rng, nvars, k, s)
		e := newEvaluator(ds)
		if e.rows != k {
			t.Fatalf("case %d: %d distinct rows of %d, want %d", c, e.rows, len(ds.X), k)
		}
		for j := range e.x {
			if len(e.x[j]) != k {
				t.Fatalf("case %d: variable column %d holds %d rows, want %d", c, j, len(e.x[j]), k)
			}
			for _, u := range e.unary {
				if len(u[j]) != k {
					t.Fatalf("case %d: unary column %d holds %d rows, want %d", c, j, len(u[j]), k)
				}
			}
		}
		// Cubing variable 0 is finite on every row but the overflow
		// row, which has only zero targets: the fitness is still +Inf.
		cube := genome{{Op: OpCube}, {Op: OpVar}}
		if got, want := e.mape(cube), rowMAPE(cube.node(), ds); !math.IsInf(got, 1) || !math.IsInf(want, 1) {
			t.Fatalf("case %d: cube over an overflow row with zero targets: MAPE %v, row-wise %v, want +Inf", c, got, want)
		}
		for tree := 0; tree < 40; tree++ {
			g := appendRandom(nil, rng, nvars, 2+rng.Intn(6), tree%2 == 0)
			got, want := e.mape(g), rowMAPE(g.node(), ds)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d/%d %s: column MAPE %v, row-wise %v", c, tree, g.node().String(ds.VarNames), got, want)
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

// fuzzValues are the input values FuzzColumnFitness draws from:
// signed zeros, NaNs with two payloads, infinities, overflow and
// protected-division magnitudes, and ordinary values. Its first nine
// are finite, and targets draw from those: a measured time is finite,
// and Go leaves the payload of a NaN that arithmetic on NaN targets
// produces unspecified.
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 1, -2.5, 3, 0.5, 1e-12, 1e120, 7,
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1), -1e120, 1e-3, 10,
}

const fuzzFiniteValues = 9

// FuzzColumnFitness maps bytes to a small dataset with forced repeats
// and a genome, and requires the column MAPE to match the row-wise
// reference bit for bit.
func FuzzColumnFitness(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 5, 3, 0, 1, 9, 10, 7, 7, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 1, 0, 7, 7, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		nvars, k, s := 1+next()%3, 1+next()%6, 1+next()%4
		distinct := make([][]float64, k)
		for r := range distinct {
			distinct[r] = make([]float64, nvars)
			for j := range distinct[r] {
				distinct[r][j] = fuzzValues[next()%len(fuzzValues)]
			}
		}
		ds := Dataset{VarNames: make([]string, nvars)}
		start := next()
		for i := 0; i < k*s; i++ {
			ds.X = append(ds.X, distinct[(start+i*(1+next()%k))%k])
			ds.Y = append(ds.Y, fuzzValues[next()%fuzzFiniteValues])
		}
		var g genome
		var grow func(depth int)
		grow = func(depth int) {
			b := next()
			switch {
			case depth >= 4 || len(g) >= 20 || b%3 == 0:
				if b%2 == 0 {
					g = append(g, gene{Op: OpVar, VarIndex: (b / 2) % nvars})
				} else {
					g = append(g, gene{Op: OpConst, Value: fuzzValues[(b/2)%len(fuzzValues)]})
				}
			case b%3 == 1:
				g = append(g, gene{Op: unaryOps[(b/3)%len(unaryOps)]})
				grow(depth + 1)
			default:
				g = append(g, gene{Op: binaryOps[(b/3)%len(binaryOps)]})
				grow(depth + 1)
				grow(depth + 1)
			}
		}
		grow(0)
		got, want := newEvaluator(ds).mape(g), rowMAPE(g.node(), ds)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s on %v -> %v: column MAPE %v, row-wise %v", g.node().String(ds.VarNames), ds.X, ds.Y, got, want)
		}
	})
}
