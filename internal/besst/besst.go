// Package besst is the core of this reproduction: the BE-SST simulator.
//
// It executes an AppBEO's abstract instructions for every rank over the
// discrete-event engine (package des, the SST stand-in). Each Comp
// instruction polls the ArchBEO performance model bound to its op and
// advances that rank's clock by the predicted (or Monte Carlo sampled)
// time; Comm instructions synchronize the ranks through a collective
// coordinator charged with the network cost model; Ckpt instructions —
// the FT-aware extension — synchronize like a coordinated checkpoint
// and advance the global clock by one sampled checkpoint-instance time.
//
// Two execution modes are provided:
//
//   - DES mode is the faithful component-based simulation (one
//     component per rank plus a coordinator). It is used for the
//     validation-scale runs of the paper (up to 1331 ranks).
//   - Direct mode exploits the lockstep structure of BE programs to
//     evaluate the same semantics closed-form, step by step. It is
//     orders of magnitude faster and is used for mega-scale notional
//     predictions (Fig 1 extends to a million ranks).
//
// Both modes are deterministic for a given RunConfig.Seed.
package besst

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"besst/internal/beo"
	"besst/internal/fti"
	"besst/internal/groundtruth"
	"besst/internal/network"
	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// Mode selects the execution strategy.
type Mode int

// Execution modes.
const (
	// DES runs the full component-based discrete-event simulation.
	DES Mode = iota
	// Direct evaluates the lockstep program closed-form.
	Direct
)

// Result is the outcome of one simulated run.
type Result struct {
	// Makespan is the end-to-end runtime in seconds (slowest rank).
	Makespan float64
	// StepCompletions[i] is the simulated time at which top-level
	// loop iteration i completed (rank 0's clock) — the series
	// plotted in Figs 7-8.
	StepCompletions []float64
	// CkptTimes are the completion times of each checkpoint instance
	// (the black dots of Figs 7-8).
	CkptTimes []float64
	// Events is the number of discrete events processed (0 in Direct
	// mode).
	Events uint64
	// Breakdown decomposes rank 0's wall time by activity — the
	// overhead decomposition DSE reports need.
	Breakdown Breakdown
}

// Breakdown is the per-activity decomposition of a run's wall time
// (rank 0's perspective; synchronization waits land in Comm).
type Breakdown struct {
	ComputeSec float64 // Comp instructions
	CommSec    float64 // collectives incl. arrival waits
	CkptSec    float64 // checkpoint instances incl. coordination waits
}

// Payload serializes the result as the canonical trial payload: the
// exact bytes the checkpoint journals persist, shard replicas compare,
// and resumed or distributed campaigns merge. encoding/json emits
// shortest round-trippable float64 forms, so two processes computing
// the same trial produce the same bytes — keeping the encoding in one
// place makes "byte-identical" a single contract rather than a
// coincidence of call sites.
func (r *Result) Payload() (json.RawMessage, error) {
	return json.Marshal(r)
}

// Total returns the sum of the components.
func (b Breakdown) Total() float64 { return b.ComputeSec + b.CommSec + b.CkptSec }

// compiled instruction kinds.
type ckind int

const (
	ckComp ckind = iota
	ckComm
	ckCkpt
	ckStepEnd
)

type cinstr struct {
	kind      ckind
	op        string
	params    perfmodel.Params
	model     perfmodel.Model // ckComp/ckCkpt: resolved binding (Compile)
	pattern   beo.CommPattern
	bytes     int64
	neighbors int
	level     fti.Level
	step      int // ckStepEnd: completed top-level iteration index
	syncID    int // ckComm/ckCkpt: dynamic synchronization instance id
	// detCost is the instruction's deterministic cost, precomputed once
	// per CompiledRun: Predict(params) for ckComp/ckCkpt, the network
	// collective cost for ckComm. Both are pure functions of compiled
	// state, so hoisting them out of the per-rank per-trial hot loops
	// changes no output bytes. Monte Carlo Sample draws still happen
	// per trial; ckComm costs are deterministic in every mode.
	detCost float64
	// logNormal records that model implements perfmodel.LogNormal, with
	// sigma its LogSigma, so sample scales detCost by one draw instead
	// of evaluating the model again.
	logNormal bool
	sigma     float64
}

// sample draws one Monte Carlo cost of a ckComp/ckCkpt instruction. It
// equals c.model.Sample(c.params, rng) bit for bit and leaves rng in the
// same state: for a perfmodel.LogNormal model that draw is
// Predict(params) — the precomputed detCost — times one log-normal
// factor, and none when sigma is 0; any other model is asked directly.
func (c *cinstr) sample(rng *stats.RNG) float64 {
	if !c.logNormal {
		return c.model.Sample(c.params, rng)
	}
	if c.sigma > 0 {
		return c.detCost * rng.LogNormal(0, c.sigma)
	}
	return c.detCost
}

// compile expands the program into the flat dynamic instruction list
// shared (read-only) by all rank components. Top-level loop iterations
// get step-end markers for the Figs 7-8 time series. It also returns
// the number of synchronization instances (syncIDs 0..syncs-1). The
// walk runs twice: the first pass only counts, so the second fills a
// slice of exactly the expanded length without growing it.
func compile(app *beo.AppBEO) (prog []cinstr, syncs int) {
	var out []cinstr
	n, syncID, counting := 0, 0, true
	push := func(c cinstr) {
		if counting {
			n++
		} else {
			out = append(out, c)
		}
	}
	var emit func(is []beo.Instr, iter int, topLevel bool)
	emit = func(is []beo.Instr, iter int, topLevel bool) {
		for _, in := range is {
			switch v := in.(type) {
			case beo.Comp:
				push(cinstr{kind: ckComp, op: v.Op, params: v.Params})
			case beo.Comm:
				push(cinstr{
					kind: ckComm, pattern: v.Pattern, bytes: v.Bytes,
					neighbors: v.Neighbors, syncID: syncID,
				})
				syncID++
			case beo.Ckpt:
				push(cinstr{
					kind: ckCkpt, op: v.Op, params: v.Params,
					level: v.Level, syncID: syncID,
				})
				syncID++
			case beo.Loop:
				for i := 0; i < v.Count; i++ {
					emit(v.Body, i, false)
					if topLevel {
						push(cinstr{kind: ckStepEnd, step: i})
					}
				}
			case beo.Periodic:
				if v.Period <= 0 {
					panic("besst: non-positive Periodic period")
				}
				if iter%v.Period == v.Offset%v.Period {
					emit(v.Body, iter, false)
				}
			default:
				panic(fmt.Sprintf("besst: unknown instruction %T", in))
			}
		}
	}
	emit(app.Program, 0, true)
	out, syncID, counting = make([]cinstr, 0, n), 0, false
	emit(app.Program, 0, true)
	return out, syncID
}

// commCost returns the deterministic network cost of a communication
// instruction for `ranks` participants.
func commCost(net *network.Model, c cinstr, ranks int) float64 {
	switch c.pattern {
	case beo.Barrier:
		return net.Barrier(ranks)
	case beo.Allreduce:
		return net.Allreduce(ranks, c.bytes)
	case beo.Broadcast:
		return net.Broadcast(ranks, c.bytes)
	case beo.Gather:
		return net.Gather(ranks, c.bytes)
	case beo.AllToAll:
		return net.AllToAll(ranks, c.bytes)
	case beo.Halo:
		return net.NearestNeighbor(c.neighbors, c.bytes)
	default:
		panic(fmt.Sprintf("besst: unknown comm pattern %v", c.pattern))
	}
}

// CompiledRun caches everything that is invariant across replications
// of one (app, arch) pair: validation, the flattened instruction list
// with its model bindings and network costs resolved, and the exact
// result-series lengths so per-trial slices are allocated once at full
// capacity instead of growing step by step.
//
// Compiling also forces every lazy model state (interpolation-table
// rebuilds) to materialize while still single-threaded, so concurrent
// replications only ever perform pure reads on the shared structures.
// A CompiledRun is therefore safe for use from multiple goroutines,
// provided the app, arch, and bound models are not mutated after
// Compile.
type CompiledRun struct {
	app   *beo.AppBEO
	arch  *beo.ArchBEO
	prog  []cinstr
	steps int // number of ckStepEnd markers per run
	ckpts int // number of ckCkpt instances per run

	// syncIdx is the dense syncID -> prog index table for the DES
	// coordinator (syncIDs are assigned contiguously by compile); it
	// replaces a per-trial map build. Indices rather than instruction
	// copies: cinstr is large and half a program can be sync points, so
	// duplicating them would roughly double the compile footprint that
	// DSE sweeps pay per cell.
	syncIdx []int32

	// desPool recycles fully wired DES simulations across trials: a
	// desSim is reset (engine rewound, RNGs reseeded, program counters
	// zeroed) before every run, so a pooled instance is byte-identical
	// to a freshly built one. Trials are pure functions of their
	// pre-drawn seeds, which keeps the pool safe under concurrent
	// replication.
	desPool sync.Pool
}

// Compile validates app against arch and builds the reusable run
// object shared by single runs and Monte Carlo replication. It panics
// on validation failure; use CompileErr for a typed-error return.
func Compile(app *beo.AppBEO, arch *beo.ArchBEO) *CompiledRun {
	cr, err := CompileErr(app, arch)
	if err != nil {
		panic(err)
	}
	return cr
}

// newCompiledRun builds the run object from validated inputs.
func newCompiledRun(app *beo.AppBEO, arch *beo.ArchBEO) *CompiledRun {
	prog, syncs := compile(app)
	cr := &CompiledRun{
		app:     app,
		arch:    arch,
		prog:    prog,
		syncIdx: make([]int32, 0, syncs),
	}
	net := arch.Machine.Network()
	// Loop expansion repeats the same (op, params) pair once per
	// iteration — often hundreds of copies sharing one params map — and
	// table-model Predict allocates interpolation scratch per call, so
	// memoize the deterministic cost per op. Entries are only reused when
	// the params compare exactly equal, which keeps the memo a pure
	// shortcut: every path still yields Predict(params) bit for bit.
	type costMemo struct {
		params perfmodel.Params
		cost   float64
	}
	memo := make(map[string]costMemo)
	for i := range cr.prog {
		c := &cr.prog[i]
		switch c.kind {
		case ckComp, ckCkpt:
			c.model = arch.ModelFor(c.op)
			// Precompute the deterministic cost. The first Predict per
			// model also triggers its lazy state (table rebuilds) while
			// still single-threaded; Predict and Sample are read-only
			// afterwards.
			if m, ok := memo[c.op]; ok && sameParams(m.params, c.params) {
				c.detCost = m.cost
			} else {
				c.detCost = c.model.Predict(c.params)
				memo[c.op] = costMemo{params: c.params, cost: c.detCost}
			}
			if ln, ok := c.model.(perfmodel.LogNormal); ok {
				c.logNormal, c.sigma = true, ln.LogSigma()
			}
			if c.kind == ckCkpt {
				cr.ckpts++
			}
		case ckComm:
			c.detCost = commCost(net, *c, app.Ranks)
		case ckStepEnd:
			cr.steps++
		}
		if c.kind == ckComm || c.kind == ckCkpt {
			if c.syncID != len(cr.syncIdx) {
				panic(fmt.Sprintf("besst: non-contiguous syncID %d at instruction %d", c.syncID, i))
			}
			cr.syncIdx = append(cr.syncIdx, int32(i))
		}
	}
	return cr
}

// sameParams reports whether two parameter maps are exactly equal. Used
// only to validate compile-time cost memo hits; exact (not approximate)
// float comparison is deliberate — any difference at all must force a
// fresh Predict so memoization stays invisible in the output bytes.
func sameParams(a, b perfmodel.Params) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		//lint:ignore floateq memo validity needs bit-exact comparison
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Makespans extracts the makespan distribution from replications.
func Makespans(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Makespan
	}
	return out
}

// simulateDirect evaluates the lockstep program closed-form. The hot
// loop indexes the shared compiled program in place (no per-iteration
// struct copy) and uses the result-series lengths counted at compile
// time so the per-trial slices never reallocate mid-run.
func simulateDirect(cr *CompiledRun, cfg RunConfig) *Result {
	rng := stats.NewRNG(cfg.Seed)
	res := &Result{
		StepCompletions: make([]float64, 0, cr.steps),
		CkptTimes:       make([]float64, 0, cr.ckpts),
	}
	ranks := cr.app.Ranks
	now := 0.0
	for i := range cr.prog {
		c := &cr.prog[i]
		switch c.kind {
		case ckComp:
			before := now
			if cfg.MonteCarlo {
				if cfg.PerRankNoise {
					// The step completes when the slowest rank's
					// draw does; reuse the shared extreme-value
					// helper for identical semantics with the
					// ground-truth emulator.
					now += groundtruth.StepMax(c.detCost, modelSigma(c, rng), ranks, rng)
				} else {
					now += c.sample(rng)
				}
			} else {
				now += c.detCost
			}
			res.Breakdown.ComputeSec += now - before
		case ckComm:
			dt := c.detCost
			res.Breakdown.CommSec += dt
			now += dt
		case ckCkpt:
			var dt float64
			if cfg.MonteCarlo {
				dt = c.sample(rng) // one coordinated draw
			} else {
				dt = c.detCost
			}
			res.Breakdown.CkptSec += dt
			now += dt
			res.CkptTimes = append(res.CkptTimes, now)
		case ckStepEnd:
			res.StepCompletions = append(res.StepCompletions, now)
		}
	}
	res.Makespan = now
	return res
}

// modelSigma estimates the relative spread of a ckComp instruction's
// model at its params by drawing a handful of samples around detCost.
// For symreg.Fitted this recovers ResidualSigma; for tables it reflects
// the stored sample spread.
func modelSigma(c *cinstr, rng *stats.RNG) float64 {
	mean := c.detCost
	if mean <= 0 {
		return 0
	}
	const probes = 8
	var ss float64
	for i := 0; i < probes; i++ {
		r := c.sample(rng) / mean
		if r <= 0 {
			continue
		}
		l := math.Log(r)
		ss += l * l
	}
	return math.Sqrt(ss / probes)
}
