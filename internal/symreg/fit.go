package symreg

import (
	"fmt"
	"math"

	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// Dataset is a supervised regression problem: X rows of variable values
// and target runtimes Y.
type Dataset struct {
	VarNames []string
	X        [][]float64
	Y        []float64
}

// Validate panics on an unusable dataset.
func (d Dataset) Validate() {
	if len(d.VarNames) == 0 {
		panic("symreg: dataset has no variables")
	}
	if len(d.X) != len(d.Y) || len(d.X) == 0 {
		panic("symreg: dataset rows mismatched or empty")
	}
	for i, row := range d.X {
		if len(row) != len(d.VarNames) {
			panic(fmt.Sprintf("symreg: row %d has %d values, want %d", i, len(row), len(d.VarNames)))
		}
	}
}

// Split partitions the dataset into train and test subsets with the
// given test fraction, shuffled deterministically by seed. This is the
// paper's train/test protocol: "the benchmarking data is split into
// training data and testing data".
func (d Dataset) Split(testFrac float64, seed uint64) (train, test Dataset) {
	d.Validate()
	if testFrac < 0 || testFrac >= 1 {
		panic("symreg: test fraction out of [0,1)")
	}
	rng := stats.NewRNG(seed)
	perm := rng.Perm(len(d.X))
	nTest := int(float64(len(d.X)) * testFrac)
	train = Dataset{VarNames: d.VarNames}
	test = Dataset{VarNames: d.VarNames}
	for i, idx := range perm {
		if i < nTest {
			test.X = append(test.X, d.X[idx])
			test.Y = append(test.Y, d.Y[idx])
		} else {
			train.X = append(train.X, d.X[idx])
			train.Y = append(train.Y, d.Y[idx])
		}
	}
	return train, test
}

// Options configures the genetic program.
type Options struct {
	PopSize     int // population size (default 256)
	Generations int // generations per restart (default 120)
	Restarts    int // independent runs, best kept (default 4)
	MaxDepth    int // hard tree-depth limit (default 7)
	Seed        uint64
	TargetMAPE  float64 // early stop when train MAPE falls below (default 0.5)
}

// The GP's fixed breeding parameters. The probabilities are typed so
// that crossoverProb+mutateProb folds to the float64 sum of the two
// rounded values, the threshold the fitted models were evolved with.
const (
	tournamentK            = 5    // tournament size
	parsimonyCoeff float64 = 0.05 // fitness penalty per node, in MAPE points
	crossoverProb  float64 = 0.7
	mutateProb     float64 = 0.2 // remainder: reproduction
	constMax       float64 = 2   // random constants are drawn from [0, constMax)
)

func (o Options) withDefaults() Options {
	if o.PopSize == 0 {
		o.PopSize = 256
	}
	if o.Generations == 0 {
		o.Generations = 120
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 7
	}
	o.TargetMAPE = defaultIfZero(o.TargetMAPE, 0.5)
	return o
}

// Fitted is a symbolic-regression performance model. It implements
// perfmodel.Model: Predict evaluates the fitted expression and Sample
// adds multiplicative log-normal residual noise estimated from the
// training residuals, so Monte Carlo simulation reproduces the
// calibration variance.
type Fitted struct {
	Label         string
	Expr          *Node
	VarNames      []string
	TrainMAPE     float64 // percent
	TestMAPE      float64 // percent (NaN when no test set supplied)
	ResidualSigma float64 // log-space sigma of train residuals

	// XScale and YScale normalize the regression problem: the GP sees
	// inputs divided by XScale and targets divided by YScale, so its
	// constants stay O(1) regardless of whether runtimes are
	// nanoseconds or hours. Predict undoes the scaling.
	XScale []float64
	YScale float64
}

// Predict implements perfmodel.Model. It is on the Monte Carlo hot path
// (every Sample starts with a Predict), so the variable vector lives in
// a stack buffer for the fitted models' typical arity; only expressions
// over more than eight variables fall back to a heap slice.
func (f *Fitted) Predict(p perfmodel.Params) float64 {
	var buf [8]float64
	var vars []float64
	if len(f.VarNames) <= len(buf) {
		vars = buf[:len(f.VarNames)]
	} else {
		vars = make([]float64, len(f.VarNames))
	}
	for i, n := range f.VarNames {
		vars[i] = p.Get(n)
		if f.XScale != nil {
			vars[i] /= f.XScale[i]
		}
	}
	v := f.Expr.Eval(vars)
	//lint:ignore floateq exactly zero YScale marks an unscaled legacy model
	if f.YScale != 0 {
		v *= f.YScale
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// Sample implements perfmodel.Model.
func (f *Fitted) Sample(p perfmodel.Params, rng *stats.RNG) float64 {
	v := f.Predict(p)
	if f.ResidualSigma > 0 {
		v *= rng.LogNormal(0, f.ResidualSigma)
	}
	return v
}

// LogSigma implements perfmodel.LogNormal: Sample is Predict scaled by
// one log-normal draw of this sigma.
func (f *Fitted) LogSigma() float64 {
	if f.ResidualSigma > 0 {
		return f.ResidualSigma
	}
	return 0
}

// Name implements perfmodel.Model.
func (f *Fitted) Name() string { return f.Label }

// String renders the fitted expression.
func (f *Fitted) String() string { return f.Expr.String(f.VarNames) }

type individual struct {
	g       genome
	hash    uint64  // g.hash()
	fitness float64 // MAPE + parsimony penalty
	rawMAPE float64
}

// Fit evolves a symbolic model for train, optionally evaluating held-out
// accuracy on test (pass a zero-value Dataset to skip). The best
// expression across restarts (by raw train MAPE) is returned.
func Fit(label string, train, test Dataset, opt Options) *Fitted {
	train.Validate()
	// Normalize the problem so the GP's constant range covers the
	// search space: divide each input by its mean magnitude and the
	// target by its mean. MAPE is scale-invariant in y, so reported
	// errors are unaffected.
	xScale, yScale := dataScales(train)
	return fit(label, train, test, opt, xScale, yScale, nil)
}

// fit runs the GP restarts on the problem scaled by xScale and yScale
// and returns the best expression (by raw train MAPE). A non-nil warm
// expression seeds the first restart (see evolve).
func fit(label string, train, test Dataset, opt Options, xScale []float64, yScale float64, warm *Node) *Fitted {
	opt = opt.withDefaults()
	master := stats.NewRNG(opt.Seed)
	strain := scaleDataset(train, xScale, yScale)
	gp := newEvolver(strain, opt)
	var seed genome
	if warm != nil {
		seed = appendNode(nil, warm)
	}

	// The first restart's winner stands until a later one beats it, so
	// a problem no expression scores finitely on (every target zero, or
	// a NaN target) still returns an expression, with its non-finite
	// TrainMAPE.
	var best individual
	for r := 0; r < opt.Restarts; r++ {
		cand := gp.evolve(master.Split(), seed)
		seed = nil
		if r == 0 || cand.rawMAPE < best.rawMAPE {
			best = cand
		}
		if best.rawMAPE < opt.TargetMAPE {
			break
		}
	}

	expr := best.g.node()
	f := &Fitted{
		Label:     label,
		Expr:      expr,
		VarNames:  train.VarNames,
		TrainMAPE: best.rawMAPE,
		TestMAPE:  math.NaN(),
		XScale:    xScale,
		YScale:    yScale,
	}
	if len(test.Y) > 0 {
		f.TestMAPE = newEvaluator(scaleDataset(test, xScale, yScale)).mape(best.g)
	}
	f.ResidualSigma = residualSigma(expr, strain)
	return f
}

// dataScales estimates the normalization Fit applies before evolving:
// each input column's mean magnitude and the target's mean magnitude.
// MAPE is scale-invariant in y, so reported errors are unaffected.
func dataScales(train Dataset) (xScale []float64, yScale float64) {
	xScale = make([]float64, len(train.VarNames))
	for j := range xScale {
		var s float64
		for _, row := range train.X {
			s += math.Abs(row[j])
		}
		s /= float64(len(train.X))
		xScale[j] = defaultIfZero(s, 1)
	}
	for _, y := range train.Y {
		yScale += math.Abs(y)
	}
	yScale /= float64(len(train.Y))
	return xScale, defaultIfZero(yScale, 1)
}

// scaleDataset divides each input column by xScale and every target by
// yScale — the normalization Fit estimates (dataScales) and Predict
// undoes.
func scaleDataset(ds Dataset, xScale []float64, yScale float64) Dataset {
	out := Dataset{VarNames: ds.VarNames}
	for i, row := range ds.X {
		r := make([]float64, len(row))
		for j := range row {
			r[j] = row[j] / xScale[j]
		}
		out.X = append(out.X, r)
		out.Y = append(out.Y, ds.Y[i]/yScale)
	}
	return out
}

// residualSigma estimates the log-space standard deviation of
// measured/predicted ratios on the training set.
func residualSigma(expr *Node, ds Dataset) float64 {
	var logs []float64
	vars := make([]float64, len(ds.VarNames))
	for i, row := range ds.X {
		copy(vars, row)
		pred := expr.Eval(vars)
		if pred <= 0 || ds.Y[i] <= 0 {
			continue
		}
		logs = append(logs, math.Log(ds.Y[i]/pred))
	}
	if len(logs) < 2 {
		return 0
	}
	return stats.Summarize(logs).Std
}

// evolver runs GP restarts over one scaled training set. Its two
// populations are double-buffered: each generation writes its children
// into the genome storage of the generation before last, so steady
// state breeding allocates nothing.
type evolver struct {
	opt       Options
	nvars     int
	train     *evaluator // fitness on the scaled training set
	pop, next []individual
	parents   parentIndex // the breeding generation, by genome
}

func newEvolver(train Dataset, opt Options) *evolver {
	return &evolver{
		opt:   opt,
		nvars: len(train.VarNames),
		train: newEvaluator(train),
		pop:   make([]individual, opt.PopSize),
		next:  make([]individual, opt.PopSize),
	}
}

// score sets ind's raw MAPE and parsimony-penalized fitness.
func (e *evolver) score(ind *individual) {
	ind.rawMAPE = e.train.mape(ind.g)
	ind.fitness = ind.rawMAPE + parsimonyCoeff*float64(len(ind.g))
}

// scoreChild scores a bred child. Fitness is a pure function of the
// genes, so a child whose genes equal a parent's exactly takes that
// parent's fitness instead of being evaluated again — bit for bit the
// value score would compute.
func (e *evolver) scoreChild(child *individual) {
	child.hash = child.g.hash()
	if p := e.parents.find(child.g, child.hash); p != nil {
		child.fitness, child.rawMAPE = p.fitness, p.rawMAPE
		return
	}
	e.score(child)
}

// parentIndex finds, within one generation, an individual whose genes
// equal a given genome: an open-addressing table of population indices
// keyed by genome hash, at most half full. It is rebuilt for every
// generation, so it holds O(PopSize) entries.
type parentIndex struct {
	pop   []individual
	slots []int32 // index+1 into pop; 0 marks an empty slot
}

// reset indexes pop, keeping one individual per distinct genome.
func (x *parentIndex) reset(pop []individual) {
	x.pop = pop
	n := 1
	for n < 2*len(pop) {
		n <<= 1
	}
	if len(x.slots) != n {
		x.slots = make([]int32, n)
	} else {
		clear(x.slots)
	}
	mask := uint64(n - 1)
	for i := range pop {
		j := pop[i].hash & mask
		for ; x.slots[j] != 0; j = (j + 1) & mask {
			if o := &pop[x.slots[j]-1]; o.hash == pop[i].hash && o.g.equal(pop[i].g) {
				break
			}
		}
		if x.slots[j] == 0 {
			x.slots[j] = int32(i + 1)
		}
	}
}

// find returns an indexed individual whose genes equal g exactly, or
// nil. h is g's hash; a hash match alone is never enough.
func (x *parentIndex) find(g genome, h uint64) *individual {
	mask := uint64(len(x.slots) - 1)
	for j := h & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if p := &x.pop[x.slots[j]-1]; p.hash == h && p.g.equal(g) {
			return p
		}
	}
	return nil
}

// evolve runs one GP restart and returns its best individual, whose
// genome it owns. A non-nil warm genome (already on the scaled problem)
// seeds the front of the initial population with itself and a band of
// its mutants — the incremental-refit path (Refit) warm-starts one
// restart this way so a grown training set doesn't pay for
// rediscovering the previous shape.
func (e *evolver) evolve(rng *stats.RNG, warm genome) individual {
	opt := e.opt
	// Ramped half-and-half initialization across depths 2..MaxDepth,
	// with the warm seed (when given) occupying the first quarter.
	pop := e.pop
	for i := range pop {
		ind := &pop[i]
		switch {
		case warm != nil && i == 0:
			ind.g = append(ind.g[:0], warm...)
		case warm != nil && i < opt.PopSize/4:
			ind.g = mutate(ind.g, warm, e.nvars, rng)
		default:
			depth := 2 + i%(opt.MaxDepth-1)
			ind.g = appendRandom(ind.g[:0], rng, e.nvars, depth, i%2 == 0)
		}
		ind.hash = ind.g.hash()
		e.score(ind)
	}

	best := pop[0]
	for _, ind := range pop {
		if ind.fitness < best.fitness {
			best = ind
		}
	}

	tournament := func() *individual {
		w := &pop[rng.Intn(len(pop))]
		for i := 1; i < tournamentK; i++ {
			c := &pop[rng.Intn(len(pop))]
			if c.fitness < w.fitness {
				w = c
			}
		}
		return w
	}

	next := e.next
	for gen := 0; gen < opt.Generations; gen++ {
		e.parents.reset(pop)
		// Elitism. best's genome lives in pop's storage, which the
		// generation after this one overwrites, so next[0] takes a copy.
		next[0] = individual{g: append(next[0].g[:0], best.g...), hash: best.hash, fitness: best.fitness, rawMAPE: best.rawMAPE}
		best = next[0]
		for k := 1; k < len(next); k++ {
			child := &next[k]
			p1 := tournament()
			roll := rng.Float64()
			scored := false
			switch {
			case roll < crossoverProb:
				child.g = crossover(child.g, p1.g, tournament().g, rng)
			case roll < crossoverProb+mutateProb:
				child.g = mutate(child.g, p1.g, e.nvars, rng)
			default: // reproduction: the clone keeps its parent's fitness
				*child = individual{g: append(child.g[:0], p1.g...), hash: p1.hash, fitness: p1.fitness, rawMAPE: p1.rawMAPE}
				scored = true
			}
			if child.g.depth() > opt.MaxDepth {
				child.g = appendRandom(child.g[:0], rng, e.nvars, opt.MaxDepth, false)
				scored = false
			}
			if !scored {
				e.scoreChild(child)
			}
			if child.fitness < best.fitness {
				best = *child
			}
		}
		pop, next = next, pop
		if best.rawMAPE < opt.TargetMAPE {
			break
		}
	}
	e.pop, e.next = pop, next
	// Local constant refinement on the winner, on a copy the next
	// restart cannot overwrite.
	best.g = append(genome(nil), best.g...)
	return e.refineConstants(best, rng)
}

// refineConstants hill-climbs the constants of the best tree: each
// round perturbs one constant multiplicatively and keeps improvements.
func (e *evolver) refineConstants(ind individual, rng *stats.RNG) individual {
	var consts []int
	for i, g := range ind.g {
		if g.Op == OpConst {
			consts = append(consts, i)
		}
	}
	if len(consts) == 0 {
		return ind
	}
	bestMAPE := ind.rawMAPE
	for round := 0; round < 200; round++ {
		c := &ind.g[consts[rng.Intn(len(consts))]]
		old := c.Value
		c.Value *= math.Exp(rng.Normal(0, 0.15))
		if m := e.train.mape(ind.g); m < bestMAPE {
			bestMAPE = m
		} else {
			c.Value = old
		}
	}
	ind.rawMAPE = bestMAPE
	ind.fitness = bestMAPE + parsimonyCoeff*float64(len(ind.g))
	return ind
}

// defaultIfZero substitutes def when v is exactly zero — the unset
// sentinel for Options fields and data-driven scale factors.
func defaultIfZero(v, def float64) float64 {
	//lint:ignore floateq zero is the unset sentinel; only an exact zero means "use the default"
	if v == 0 {
		return def
	}
	return v
}
