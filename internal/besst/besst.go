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
	// Events is the number of discrete events of the DES protocol (0
	// in Direct mode): per rank, one start event, one per compute step,
	// and one arrival plus one release per Comm or Ckpt. It depends on
	// the program alone and is counted at compile time; the engine
	// delivers fewer (it fuses back-to-back syncs and sends an arrival
	// at its compute's end, see des.go).
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

// compiled instruction kinds. The walker descends into ckLoop and
// ckPeriodic nodes rather than yielding them (but see walker.next).
type ckind int

const (
	ckComp ckind = iota
	ckComm
	ckCkpt
	ckLoop
	ckPeriodic
)

// cinstr is one static instruction of the compiled program.
type cinstr struct {
	kind      ckind
	op        string
	params    perfmodel.Params
	model     perfmodel.Model // ckComp/ckCkpt: resolved binding (Compile)
	pattern   beo.CommPattern
	bytes     int64
	neighbors int
	level     fti.Level
	// detCost is the deterministic cost, computed once per CompiledRun:
	// Predict(params) for ckComp/ckCkpt, the network collective cost for
	// ckComm. Both are pure, so hoisting them changes no output bytes.
	detCost float64
	// logNormal records that model implements perfmodel.LogNormal, with
	// sigma its LogSigma, so sample scales detCost by one draw.
	logNormal bool
	sigma     float64

	// body is a ckLoop node's body, run count times (top: a loop of the
	// program's top level, whose iterations are steps), or a ckPeriodic
	// node's, run on enclosing iterations i with i%period == phase =
	// Offset%Period — the unrolled semantics, negative offsets included.
	body   []cinstr
	count  int
	period int
	phase  int
	top    bool
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

// shape returns the number of static instructions in is, nested bodies
// included, and how deeply Loop and Periodic nodes nest in it.
func shape(is []beo.Instr) (nodes, depth int) {
	nodes = len(is)
	for _, in := range is {
		var body []beo.Instr
		switch v := in.(type) {
		case beo.Loop:
			body = v.Body
		case beo.Periodic:
			body = v.Body
		default:
			continue
		}
		n, d := shape(body)
		nodes, depth = nodes+n, max(depth, d+1)
	}
	return nodes, depth
}

// compile compiles one instruction list, each static instruction once,
// keeping its loop structure, into the front of *slab (sized by shape).
// top marks the program's own list, whose loops are the step loops. A
// Periodic with a non-positive period panics here, wherever it sits.
func (cr *CompiledRun) compile(is []beo.Instr, top bool, net *network.Model, slab *[]cinstr) []cinstr {
	out := (*slab)[:len(is):len(is)]
	*slab = (*slab)[len(is):]
	for i, in := range is {
		c := &out[i]
		switch v := in.(type) {
		case beo.Comp:
			*c = cinstr{kind: ckComp, op: v.Op, params: v.Params}
		case beo.Ckpt:
			*c = cinstr{kind: ckCkpt, op: v.Op, params: v.Params, level: v.Level}
		case beo.Comm:
			*c = cinstr{kind: ckComm, pattern: v.Pattern, bytes: v.Bytes, neighbors: v.Neighbors,
				detCost: commCost(net, v, cr.app.Ranks)}
		case beo.Loop:
			*c = cinstr{kind: ckLoop, count: v.Count, top: top, body: cr.compile(v.Body, false, net, slab)}
		case beo.Periodic:
			if v.Period <= 0 {
				panic("besst: non-positive Periodic period")
			}
			*c = cinstr{kind: ckPeriodic, period: v.Period, phase: v.Offset % v.Period,
				body: cr.compile(v.Body, false, net, slab)}
		default:
			panic(fmt.Sprintf("besst: unknown instruction %T", in))
		}
		if c.kind == ckComp || c.kind == ckCkpt {
			// The first Predict materializes lazy model state (table
			// rebuilds) single-threaded; trials only read it.
			c.model = cr.arch.ModelFor(c.op)
			c.detCost = c.model.Predict(c.params)
			if ln, ok := c.model.(perfmodel.LogNormal); ok {
				c.logNormal, c.sigma = true, ln.LogSigma()
			}
		}
	}
	return out
}

// commCost returns the deterministic network cost of a communication
// instruction for `ranks` participants.
func commCost(net *network.Model, c beo.Comm, ranks int) float64 {
	switch c.Pattern {
	case beo.Barrier:
		return net.Barrier(ranks)
	case beo.Allreduce:
		return net.Allreduce(ranks, c.Bytes)
	case beo.Broadcast:
		return net.Broadcast(ranks, c.Bytes)
	case beo.Gather:
		return net.Gather(ranks, c.Bytes)
	case beo.AllToAll:
		return net.AllToAll(ranks, c.Bytes)
	case beo.Halo:
		return net.NearestNeighbor(c.Neighbors, c.Bytes)
	default:
		panic(fmt.Sprintf("besst: unknown comm pattern %v", c.Pattern))
	}
}

// frame is one level of a walker's stack: the Loop or Periodic node
// whose body runs, the next body index, and the iteration in [iter,
// end); a periodic frame runs once, at its enclosing iteration.
type frame struct {
	n         *cinstr
	pc        int
	iter, end int
}

// walkerFrames frames on the stack serve programs nested up to seven
// Loop/Periodic levels deep; deeper ones get a heap slice.
const walkerFrames = 8

// walker is a cursor yielding a compiled program's dynamic instruction
// sequence. It reslices, never appends, so stack storage stays there.
type walker struct {
	stack []frame // the live frames; capacity CompiledRun.depth
}

// walker starts a walk with buf's frames, or fresh ones if buf is short.
func (cr *CompiledRun) walker(buf []frame) walker {
	if cap(buf) < cr.depth {
		buf = make([]frame, 0, cr.depth)
	}
	return walker{stack: append(buf[:0], frame{n: &cr.root, end: 1})}
}

// next returns the next ckComp, ckComm or ckCkpt node, a top-level
// ckLoop node as each of its iterations (a step) ends, or nil at the end.
func (w *walker) next() *cinstr {
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		if f.pc < len(f.n.body) {
			c := &f.n.body[f.pc]
			f.pc++
			switch c.kind {
			case ckLoop:
				if c.count > 0 {
					w.stack = w.stack[:len(w.stack)+1]
					w.stack[len(w.stack)-1] = frame{n: c, end: c.count}
				}
			case ckPeriodic:
				if f.iter%c.period == c.phase {
					w.stack = w.stack[:len(w.stack)+1]
					w.stack[len(w.stack)-1] = frame{n: c, iter: f.iter, end: f.iter + 1}
				}
			default:
				return c
			}
			continue
		}
		// The body is done: run it again or leave it.
		n := f.n
		if f.iter++; f.iter < f.end {
			f.pc = 0
		} else {
			w.stack = w.stack[:len(w.stack)-1]
		}
		if n.top {
			return n
		}
	}
	return nil
}

// CompiledRun caches everything that is invariant across replications
// of one (app, arch) pair: validation, the compiled program (see
// compile; trials walk it, so compiling costs O(program text), not
// O(timesteps)), and the exact result-series lengths so per-trial
// slices are allocated once at full capacity.
//
// Compiling also forces every lazy model state (interpolation-table
// rebuilds) to materialize while still single-threaded, so concurrent
// replications only ever perform pure reads on the shared structures.
// A CompiledRun is therefore safe for use from multiple goroutines,
// provided the app, arch, and bound models are not mutated after
// Compile.
//
// A DES-mode run holds the program's longest sync-free stretch (the
// dynamic instructions from one Comm or Ckpt through the next) in
// memory, one pointer per instruction, in every simulation it pools.
// For LULESH and CMT-bone, whose every step syncs, that is a few
// entries; for a program with no Comm or Ckpt it is the whole unrolled
// program, O(Loop.Count x body), where Direct mode needs only its loop
// nesting depth.
type CompiledRun struct {
	app   *beo.AppBEO
	arch  *beo.ArchBEO
	root  cinstr // one-iteration, non-step loop around the program
	depth int    // frames a walk needs: 1 + the Loop/Periodic nesting
	steps int    // top-level loop iterations (step ends) per run
	ckpts int    // dynamic ckCkpt instances per run
	// events is a DES run's Result.Events: per rank, one start event,
	// one per dynamic compute, and an arrival and a release per
	// dynamic Comm or Ckpt.
	events uint64

	// desPool recycles fully wired DES simulations across trials: reset
	// rewinds a desSim before every run to match a fresh build byte for
	// byte. Trials are pure functions of their pre-drawn seeds, which
	// keeps the pool safe under concurrent replication.
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

// newCompiledRun builds the run object from validated inputs, counting
// the result series and the DES protocol's events in one dry walk.
func newCompiledRun(app *beo.AppBEO, arch *beo.ArchBEO) *CompiledRun {
	nodes, depth := shape(app.Program)
	cr := &CompiledRun{app: app, arch: arch, depth: depth + 1}
	slab := make([]cinstr, nodes)
	cr.root = cinstr{kind: ckLoop, body: cr.compile(app.Program, true, arch.Machine.Network(), &slab), count: 1}
	var frames [walkerFrames]frame
	w := cr.walker(frames[:0])
	var comps, syncs uint64
	for c := w.next(); c != nil; c = w.next() {
		switch c.kind {
		case ckLoop:
			cr.steps++
		case ckComp:
			comps++
		case ckComm:
			syncs++
		case ckCkpt:
			cr.ckpts++
			syncs++
		}
	}
	cr.events = uint64(app.Ranks) * (1 + comps + 2*syncs)
	return cr
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
// loop walks the shared compiled program in place (no per-instruction
// struct copy, walker frames on the stack) and uses the result-series
// lengths counted at compile time so the per-trial slices never
// reallocate mid-run.
func simulateDirect(cr *CompiledRun, cfg RunConfig) *Result {
	rng := stats.NewRNG(cfg.Seed)
	res := &Result{
		StepCompletions: make([]float64, 0, cr.steps),
		CkptTimes:       make([]float64, 0, cr.ckpts),
	}
	ranks := cr.app.Ranks
	now := 0.0
	var frames [walkerFrames]frame
	w := cr.walker(frames[:0])
	for c := w.next(); c != nil; c = w.next() {
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
		case ckLoop: // a step ended
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
