package besst

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"besst/internal/beo"
	"besst/internal/fti"
	"besst/internal/lulesh"
	"besst/internal/machine"
	"besst/internal/perfmodel"
	"besst/internal/stats"
	"besst/internal/symreg"
)

var cfg = fti.Config{GroupSize: 4, NodeSize: 2}

// constArch binds constant models for the LULESH ops.
func constArch(ts, l1, l2 float64) *beo.ArchBEO {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Constant{Label: "ts", Seconds: ts})
	arch.Bind(lulesh.OpCkptL1, perfmodel.Constant{Label: "l1", Seconds: l1})
	arch.Bind(lulesh.OpCkptL2, perfmodel.Constant{Label: "l2", Seconds: l2})
	return arch
}

// commFree zeroes the network cost so makespans are exactly computable.
func commFree(arch *beo.ArchBEO) *beo.ArchBEO {
	m := *arch.Machine
	m.Net.InjectionOverhead = 0
	m.Net.HopLatency = 0
	m.Net.LinkBandwidth = 1e30
	m.Net.EagerLimit = 1 << 62
	arch.Machine = &m
	return arch
}

// unroll is the reference the walker is checked against: the
// original compile, which expanded every loop into one instruction per
// dynamic instruction. A step end is listed as a bare ckLoop entry.
func unroll(app *beo.AppBEO) []cinstr {
	var out []cinstr
	var emit func(is []beo.Instr, iter int, topLevel bool)
	emit = func(is []beo.Instr, iter int, topLevel bool) {
		for _, in := range is {
			switch v := in.(type) {
			case beo.Comp:
				out = append(out, cinstr{kind: ckComp, op: v.Op, params: v.Params})
			case beo.Comm:
				out = append(out, cinstr{
					kind: ckComm, pattern: v.Pattern, bytes: v.Bytes, neighbors: v.Neighbors,
				})
			case beo.Ckpt:
				out = append(out, cinstr{kind: ckCkpt, op: v.Op, params: v.Params, level: v.Level})
			case beo.Loop:
				for i := 0; i < v.Count; i++ {
					emit(v.Body, i, false)
					if topLevel {
						out = append(out, cinstr{kind: ckLoop})
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
	return out
}

// randomApps generates n seeded random 8-rank AppBEOs over the compute
// ops c0 and c1 and the checkpoint ops k1..k4 (one per FTI level), and
// the set of program features they exercised. Loops nest up to three
// deep; every list may be empty, hold Comp/Comm/Ckpt instructions, or
// a Periodic, including at the top level, outside any loop.
func randomApps(seed uint64, n int) ([]*beo.AppBEO, map[string]bool) {
	rng := rand.New(rand.NewPCG(seed, 7))
	seen := map[string]bool{}
	patterns := []beo.CommPattern{beo.Barrier, beo.Allreduce, beo.Broadcast, beo.Gather, beo.AllToAll, beo.Halo}
	var gen func(loops, periodics int) []beo.Instr
	gen = func(loops, periodics int) []beo.Instr {
		n := rng.IntN(5)
		if loops == 0 && periodics == 0 {
			n = 1 + rng.IntN(6) // the program itself: rarely empty
		}
		is := make([]beo.Instr, n)
		if n == 0 {
			seen["empty list"] = true
		}
		for i := range is {
			switch k := rng.IntN(6); {
			case k == 0 && loops < 3:
				count := rng.IntN(5)
				seen[fmt.Sprintf("loop count %d", count)] = true
				seen[fmt.Sprintf("loop depth %d", loops+1)] = true
				is[i] = beo.Loop{Count: count, Body: gen(loops+1, periodics)}
			case k == 1 && periodics < 2:
				period, offset := 1+rng.IntN(4), rng.IntN(12)-4
				seen[fmt.Sprintf("periodic in loop depth %d", loops)] = true
				seen["offset < 0"] = seen["offset < 0"] || offset < 0
				seen["offset >= period"] = seen["offset >= period"] || offset >= period
				is[i] = beo.Periodic{Period: period, Offset: offset, Body: gen(loops, periodics+1)}
			case k == 2:
				p := patterns[rng.IntN(len(patterns))]
				seen["comm "+p.String()] = true
				seen["comm outside loops"] = seen["comm outside loops"] || loops == 0
				is[i] = beo.Comm{Pattern: p, Bytes: int64(rng.IntN(1 << 16)), Neighbors: 1 + rng.IntN(6)}
			case k == 3:
				level := fti.Level(1 + rng.IntN(4))
				seen[fmt.Sprintf("ckpt level %d", level)] = true
				is[i] = beo.Ckpt{Op: fmt.Sprintf("k%d", level), Level: level,
					Params: perfmodel.Params{"i": float64(rng.IntN(100))}}
			default:
				seen["comp outside loops"] = seen["comp outside loops"] || loops == 0
				is[i] = beo.Comp{Op: fmt.Sprintf("c%d", rng.IntN(2)),
					Params: perfmodel.Params{"i": float64(rng.IntN(100))}}
			}
		}
		return is
	}
	apps := make([]*beo.AppBEO, n)
	for i := range apps {
		apps[i] = &beo.AppBEO{Name: fmt.Sprintf("random-%d", i), Ranks: 8, Program: gen(0, 0)}
	}
	return apps, seen
}

// randomArch binds constant models with whole-nanosecond costs to every
// op randomApps uses.
func randomArch() *beo.ArchBEO {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for op, s := range map[string]float64{
		"c0": 0.003, "c1": 0.0017, "k1": 0.05, "k2": 0.07, "k3": 0.11, "k4": 0.13,
	} {
		arch.Bind(op, perfmodel.Constant{Label: op, Seconds: s})
	}
	return arch
}

// TestWalkerMatchesUnroll holds the walker to the unrolled program: on
// LULESH and on random programs it must yield the same dynamic
// instruction sequence — kind, op, the very params map, level and comm
// shape — and Compile's step and checkpoint counts must match it.
func TestWalkerMatchesUnroll(t *testing.T) {
	apps, seen := randomApps(1, 300)
	for _, f := range []string{
		"empty list", "loop count 0", "loop count 1", "loop depth 3",
		"periodic in loop depth 0", "periodic in loop depth 1", "periodic in loop depth 2", "periodic in loop depth 3",
		"offset < 0", "offset >= period", "comm outside loops", "comp outside loops",
		"ckpt level 1", "ckpt level 2", "ckpt level 3", "ckpt level 4",
		"comm barrier", "comm allreduce", "comm broadcast", "comm gather", "comm alltoall", "comm halo",
	} {
		if !seen[f] {
			t.Fatalf("random programs never exercise %q", f)
		}
	}
	apps = append(apps, lulesh.App(10, 64, 200, lulesh.ScenarioL1L2, cfg))
	arch := randomArch()
	arch.Bind(lulesh.OpTimestep, perfmodel.Constant{Seconds: 0.01})
	arch.Bind(lulesh.OpCkptL1, perfmodel.Constant{Seconds: 0.1})
	arch.Bind(lulesh.OpCkptL2, perfmodel.Constant{Seconds: 0.15})
	mapID := func(p perfmodel.Params) uintptr { return reflect.ValueOf(p).Pointer() }
	for _, app := range apps {
		cr := Compile(app, arch)
		want := unroll(app)
		steps, ckpts, i := 0, 0, 0
		w := cr.walker(nil)
		for c := w.next(); c != nil; c = w.next() {
			if i == len(want) {
				t.Fatalf("%s: walker runs past the %d unrolled instructions", app.Name, len(want))
			}
			r := &want[i]
			if c.kind != r.kind || c.op != r.op || mapID(c.params) != mapID(r.params) || c.level != r.level ||
				c.pattern != r.pattern || c.bytes != r.bytes || c.neighbors != r.neighbors {
				t.Fatalf("%s: dynamic instruction %d is %+v, unrolled %+v", app.Name, i, *c, *r)
			}
			switch c.kind {
			case ckLoop:
				steps++
			case ckCkpt:
				ckpts++
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("%s: walker yields %d instructions, unrolled %d", app.Name, i, len(want))
		}
		if cr.steps != steps || cr.ckpts != ckpts {
			t.Fatalf("%s: Compile counts %d steps %d ckpts, the walk %d and %d",
				app.Name, cr.steps, cr.ckpts, steps, ckpts)
		}
	}
}

// TestCompileBytesIndependentOfSteps pins that compiling costs the
// program text, not its timesteps: one Compile of the 64-rank L1&L2
// LULESH app allocates the same bytes at 4,000 steps as at 100.
func TestCompileBytesIndependentOfSteps(t *testing.T) {
	arch := constArch(0.01, 0.1, 0.15)
	compileBytes := func(steps int) uint64 {
		app := lulesh.App(10, 64, steps, lulesh.ScenarioL1L2, cfg)
		Compile(app, arch) // warm any lazy state
		best := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Compile(app, arch)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	if b100, b4000 := compileBytes(100), compileBytes(4000); b100 != b4000 {
		t.Fatalf("Compile allocates %d B at 100 steps, %d B at 4000", b100, b4000)
	}
}

// TestPeriodicPeriodCheckedAtCompile pins that a non-positive Periodic
// period is rejected when compiling, even where no run would reach it.
func TestPeriodicPeriodCheckedAtCompile(t *testing.T) {
	app := &beo.AppBEO{Name: "bad", Ranks: 8, Program: []beo.Instr{
		beo.Loop{Count: 0, Body: []beo.Instr{beo.Periodic{Period: 0}}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic")
		}
	}()
	Compile(app, randomArch())
}

func TestDESExactMakespanConstModels(t *testing.T) {
	app := lulesh.App(10, 8, 40, lulesh.ScenarioL1, cfg)
	arch := commFree(constArch(0.01, 0.2, 0))
	res := Run(app, arch, WithMode(DES))
	// 40 steps x 10ms + 1 checkpoint x 200ms.
	want := 40*0.01 + 0.2
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Events == 0 {
		t.Fatal("DES mode should process events")
	}
}

// TestDirectMatchesDESDeterministic runs both modes on LULESH and on
// the first six random programs of at least 20 dynamic instructions.
// The random ones use whole-nanosecond constant costs and a free
// network, so DES's integer-nanosecond clock cannot round.
func TestDirectMatchesDESDeterministic(t *testing.T) {
	type tc struct {
		app  *beo.AppBEO
		arch *beo.ArchBEO
	}
	cases := []tc{{lulesh.App(15, 64, 80, lulesh.ScenarioL1L2, cfg), constArch(0.01, 0.1, 0.15)}}
	apps, _ := randomApps(2, 100)
	for _, app := range apps {
		if len(cases) < 7 && len(unroll(app)) >= 20 {
			cases = append(cases, tc{app, commFree(randomArch())})
		}
	}
	for _, c := range cases {
		des := Run(c.app, c.arch, WithMode(DES))
		dir := Run(c.app, c.arch, WithMode(Direct))
		if math.Abs(des.Makespan-dir.Makespan) > 1e-9*des.Makespan {
			t.Fatalf("%s: DES %v != Direct %v", c.app.Name, des.Makespan, dir.Makespan)
		}
		if len(des.StepCompletions) != len(dir.StepCompletions) {
			t.Fatalf("%s: step series length mismatch", c.app.Name)
		}
		for i := range des.StepCompletions {
			if math.Abs(des.StepCompletions[i]-dir.StepCompletions[i]) > 1e-9 {
				t.Fatalf("%s: step %d: %v vs %v", c.app.Name, i, des.StepCompletions[i], dir.StepCompletions[i])
			}
		}
		if len(des.CkptTimes) != len(dir.CkptTimes) {
			t.Fatalf("%s: checkpoint marker mismatch", c.app.Name)
		}
	}
}

func TestStepCompletionsMonotone(t *testing.T) {
	app := lulesh.App(10, 8, 50, lulesh.ScenarioL1, cfg)
	arch := constArch(0.01, 0.1, 0)
	res := Run(app, arch, WithMode(DES))
	if len(res.StepCompletions) != 50 {
		t.Fatalf("steps recorded = %d", len(res.StepCompletions))
	}
	for i := 1; i < len(res.StepCompletions); i++ {
		if res.StepCompletions[i] <= res.StepCompletions[i-1] {
			t.Fatalf("non-monotone at %d", i)
		}
	}
}

func TestCkptTimesCadence(t *testing.T) {
	app := lulesh.App(10, 8, 200, lulesh.ScenarioL1, cfg)
	arch := constArch(0.01, 0.5, 0)
	res := Run(app, arch, WithMode(DES))
	if len(res.CkptTimes) != 5 {
		t.Fatalf("checkpoint instances = %d, want 5", len(res.CkptTimes))
	}
	// Checkpoints land after steps 40, 80, ...: each ckpt time must
	// exceed the 39th step completion etc.
	if res.CkptTimes[0] <= res.StepCompletions[38] {
		t.Fatal("first checkpoint too early")
	}
	if res.CkptTimes[0] > res.StepCompletions[39]+1e-9 {
		t.Fatal("first checkpoint after step 40 completion")
	}
}

func TestScenarioOverheadOrdering(t *testing.T) {
	arch := constArch(0.01, 0.1, 0.12)
	total := func(sc lulesh.Scenario) float64 {
		app := lulesh.App(10, 8, 200, sc, cfg)
		return Run(app, arch, WithMode(DES)).Makespan
	}
	noFT := total(lulesh.ScenarioNoFT)
	l1 := total(lulesh.ScenarioL1)
	l12 := total(lulesh.ScenarioL1L2)
	if !(noFT < l1 && l1 < l12) {
		t.Fatalf("ordering violated: %v %v %v", noFT, l1, l12)
	}
}

// TestCkptOverheadMonotoneInFrequency is the paper's metamorphic
// checkpoint property, on LULESH at 64 ranks, deterministic, in both
// modes: as the L1 period shrinks (50, 25, 10, 5 steps) neither the
// makespan nor the checkpoint time may fall, with L2 held at the
// paper's 40 steps, and at every period No FT <= L1 <= L1&L2. Steps
// that checkpoint at both levels fuse a run of four syncs in DES mode.
func TestCkptOverheadMonotoneInFrequency(t *testing.T) {
	arch := constArch(0.01, 0.1, 0.15)
	for _, mode := range []Mode{DES, Direct} {
		noFT := Run(lulesh.App(10, 64, 200, lulesh.ScenarioNoFT, cfg), arch, WithMode(mode))
		var prevL1, prevL12 *Result
		for _, period := range []int{50, 25, 10, 5} {
			l1Sched := lulesh.CkptSchedule{Level: fti.L1, Period: period}
			l1 := Run(lulesh.App(10, 64, 200, lulesh.Scenario{Name: "L1",
				Schedules: []lulesh.CkptSchedule{l1Sched}}, cfg), arch, WithMode(mode))
			l12 := Run(lulesh.App(10, 64, 200, lulesh.Scenario{Name: "L1 & L2",
				Schedules: []lulesh.CkptSchedule{l1Sched, {Level: fti.L2, Period: 40}}}, cfg), arch, WithMode(mode))
			if l1.Makespan < noFT.Makespan || l12.Makespan < l1.Makespan {
				t.Errorf("%v L1 period %d: makespans No FT %v, L1 %v, L1&L2 %v, want ascending",
					mode, period, noFT.Makespan, l1.Makespan, l12.Makespan)
			}
			for _, c := range []struct {
				name       string
				prev, this *Result
			}{{"L1", prevL1, l1}, {"L1&L2", prevL12, l12}} {
				if c.prev == nil {
					continue
				}
				if c.this.Makespan < c.prev.Makespan || c.this.Breakdown.CkptSec < c.prev.Breakdown.CkptSec {
					t.Errorf("%v %s: L1 period %d has makespan %v, checkpoint time %v; the longer period had %v, %v",
						mode, c.name, period, c.this.Makespan, c.this.Breakdown.CkptSec,
						c.prev.Makespan, c.prev.Breakdown.CkptSec)
				}
			}
			prevL1, prevL12 = l1, l12
		}
	}
}

func TestMonteCarloDeterministicBySeed(t *testing.T) {
	app := lulesh.App(10, 8, 20, lulesh.ScenarioL1, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts", F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.1})
	arch.Bind(lulesh.OpCkptL1, perfmodel.Func{Label: "l1", F: func(perfmodel.Params) float64 { return 0.1 }, NoiseSigma: 0.2})
	a := Replicate(app, arch, 4, WithMode(DES), WithSeed(5))
	b := Replicate(app, arch, 4, WithMode(DES), WithSeed(5))
	for i := range a {
		if a[i].Makespan != b[i].Makespan {
			t.Fatal("MC not reproducible for same seed")
		}
	}
	if a[0].Makespan == a[1].Makespan {
		t.Fatal("MC replications identical — streams not independent")
	}
}

func TestMonteCarloVarianceReflectsNoise(t *testing.T) {
	app := lulesh.App(10, 8, 20, lulesh.ScenarioNoFT, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts", F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.1})
	runs := Replicate(app, arch, 30, WithMode(DES), WithSeed(1))
	s := stats.Summarize(Makespans(runs))
	if s.Std == 0 {
		t.Fatal("MC makespans carry no variance")
	}
	if s.Std/s.Mean > 0.1 {
		t.Fatalf("relative spread %v implausibly large", s.Std/s.Mean)
	}
}

func TestPerRankNoiseInflatesDirectMakespan(t *testing.T) {
	app := lulesh.App(10, 1000, 20, lulesh.ScenarioNoFT, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts", F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.05})
	det := Run(app, arch, WithMode(Direct))
	mc := Replicate(app, arch, 10, WithMode(Direct), WithPerRankNoise(true), WithSeed(2))
	mean := stats.Mean(Makespans(mc))
	// Max over 1000 lognormal(0,0.05) draws is ~15-20% above mean.
	if mean < 1.05*det.Makespan {
		t.Fatalf("per-rank noise did not inflate makespan: %v vs %v", mean, det.Makespan)
	}
}

func TestDESPerRankStragglersInflateToo(t *testing.T) {
	app := lulesh.App(10, 64, 20, lulesh.ScenarioNoFT, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts", F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.05})
	det := Run(app, arch, WithMode(DES))
	mc := Replicate(app, arch, 10, WithMode(DES), WithSeed(3))
	mean := stats.Mean(Makespans(mc))
	if mean <= det.Makespan {
		t.Fatalf("DES straggler effect missing: %v vs %v", mean, det.Makespan)
	}
}

func TestSimulatePanicsOnUnboundModel(t *testing.T) {
	app := lulesh.App(10, 8, 5, lulesh.ScenarioL1, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2) // nothing bound
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(app, arch)
}

func TestMonteCarloPanicsOnBadN(t *testing.T) {
	app := lulesh.App(10, 8, 5, lulesh.ScenarioNoFT, cfg)
	arch := constArch(1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Replicate(app, arch, 0)
}

func TestCommCostPatterns(t *testing.T) {
	net := machine.Quartz().Network()
	for _, p := range []beo.CommPattern{beo.Barrier, beo.Allreduce, beo.Broadcast, beo.Gather, beo.AllToAll} {
		if got := commCost(net, beo.Comm{Pattern: p, Bytes: 1 << 16}, 64); got <= 0 {
			t.Fatalf("pattern %v cost %v", p, got)
		}
	}
	halo := beo.Comm{Pattern: beo.Halo, Bytes: 1 << 16, Neighbors: 6}
	if commCost(net, halo, 64) <= 0 {
		t.Fatal("halo cost should be positive")
	}
}

// compiledOps compiles a 50-step L1 LULESH run with m bound to both
// the timestep and the L1 checkpoint op, and returns its first compute
// and first checkpoint instruction as Compile resolved them.
func compiledOps(t *testing.T, m perfmodel.Model) (comp, ckpt *cinstr) {
	t.Helper()
	arch := constArch(0.01, 0.1, 0)
	arch.Bind(lulesh.OpTimestep, m)
	arch.Bind(lulesh.OpCkptL1, m)
	cr := Compile(lulesh.App(10, 8, 50, lulesh.ScenarioL1, cfg), arch)
	w := cr.walker(nil)
	for c := w.next(); c != nil; c = w.next() {
		switch {
		case c.kind == ckComp && comp == nil:
			comp = c
		case c.kind == ckCkpt && ckpt == nil:
			ckpt = c
		}
	}
	if comp == nil || ckpt == nil {
		t.Fatal("program lacks a compute or a checkpoint instruction")
	}
	return comp, ckpt
}

// TestSampleMatchesModelSample pins the hoisted Monte Carlo draw: from
// twin RNGs, cinstr.sample returns exactly what the bound model's
// Sample does and leaves both RNGs in the same state, for every model
// kind — log-normal models through the precomputed mean, the others
// (tables, constants) by asking the model.
func TestSampleMatchesModelSample(t *testing.T) {
	fitted := func(sigma float64) *symreg.Fitted {
		return &symreg.Fitted{
			Label: "fit",
			Expr: &symreg.Node{Op: symreg.OpMul,
				L: &symreg.Node{Op: symreg.OpCube, L: &symreg.Node{Op: symreg.OpVar, VarIndex: 0}},
				R: &symreg.Node{Op: symreg.OpVar, VarIndex: 1},
			},
			VarNames:      []string{"epr", "ranks"},
			ResidualSigma: sigma,
			XScale:        []float64{3, 7},
			YScale:        1e-4,
		}
	}
	epr := func(p perfmodel.Params) float64 { return 1e-4 * p.Get("epr") }
	table := perfmodel.NewTable("tab", "epr", "ranks")
	for _, v := range []float64{0.011, 0.009, 0.013} {
		table.Add(perfmodel.Params{"epr": 10, "ranks": 8}, v)
		table.Add(perfmodel.Params{"epr": 20, "ranks": 8}, 2*v)
	}
	cases := []struct {
		name      string
		m         perfmodel.Model
		logNormal bool
	}{
		{"fitted", fitted(0.07), true},
		{"fitted_sigma0", fitted(0), true},
		{"func_noise", perfmodel.Func{Label: "f", F: epr, NoiseSigma: 0.2}, true},
		{"func_plain", perfmodel.Func{Label: "f", F: epr}, true},
		{"constant", perfmodel.Constant{Label: "c", Seconds: 0.3}, false},
		{"table", table, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp, ckpt := compiledOps(t, tc.m)
			for _, c := range []*cinstr{comp, ckpt} {
				if c.logNormal != tc.logNormal {
					t.Fatalf("logNormal = %v, want %v", c.logNormal, tc.logNormal)
				}
				a, b := stats.NewRNG(9), stats.NewRNG(9)
				for i := 0; i < 64; i++ {
					got, want := c.sample(a), tc.m.Sample(c.params, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("draw %d: sample %v, model Sample %v", i, got, want)
					}
					if *a != *b {
						t.Fatalf("draw %d: RNG states diverged", i)
					}
				}
			}
		})
	}
}

func TestModelSigmaRecoversNoise(t *testing.T) {
	one := func(perfmodel.Params) float64 { return 1 }
	noisy, _ := compiledOps(t, perfmodel.Func{Label: "f", F: one, NoiseSigma: 0.2})
	rng := stats.NewRNG(4)
	if got := modelSigma(noisy, rng); got < 0.05 || got > 0.5 {
		t.Fatalf("sigma estimate %v far from 0.2", got)
	}
	constant, _ := compiledOps(t, perfmodel.Constant{Seconds: 1})
	if s := modelSigma(constant, rng); s != 0 {
		t.Fatalf("constant model sigma = %v", s)
	}
}

// TestDESIgnoresPerRankNoise pins that the PerRankNoise flag does not
// reach DES mode: every DES rank already draws from its own stream, so
// results are byte-equal with the flag on and off.
func TestDESIgnoresPerRankNoise(t *testing.T) {
	app := lulesh.App(10, 64, 50, lulesh.ScenarioL1L2, cfg)
	arch := constArch(0.01, 0.1, 0.2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts",
		F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.05})
	cr := Compile(app, arch)
	payloads := func(perRank bool) []string {
		var out []string
		for _, r := range cr.Replicate(4, WithMode(DES), WithSeed(7), WithPerRankNoise(perRank)) {
			doc, err := r.Payload()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(doc))
		}
		return out
	}
	if on, off := payloads(true), payloads(false); !reflect.DeepEqual(on, off) {
		t.Fatalf("DES results depend on PerRankNoise:\n on: %v\noff: %v", on, off)
	}
}

func TestBreakdownDirectSumsToMakespan(t *testing.T) {
	app := lulesh.App(10, 8, 50, lulesh.ScenarioL1, cfg)
	arch := commFree(constArch(0.01, 0.1, 0))
	res := Run(app, arch, WithMode(Direct))
	if math.Abs(res.Breakdown.Total()-res.Makespan) > 1e-9 {
		t.Fatalf("breakdown %v != makespan %v", res.Breakdown.Total(), res.Makespan)
	}
	if math.Abs(res.Breakdown.ComputeSec-0.5) > 1e-9 { // 50 x 10ms
		t.Fatalf("compute = %v", res.Breakdown.ComputeSec)
	}
	if math.Abs(res.Breakdown.CkptSec-0.1) > 1e-9 { // 1 instance
		t.Fatalf("ckpt = %v", res.Breakdown.CkptSec)
	}
}

func TestBreakdownDESSumsToMakespan(t *testing.T) {
	app := lulesh.App(10, 8, 50, lulesh.ScenarioL1L2, cfg)
	arch := constArch(0.01, 0.1, 0.15)
	res := Run(app, arch, WithMode(DES))
	// Rank 0's buckets must tile its wall time exactly in the
	// deterministic case (no straggler waits with constant models).
	if math.Abs(res.Breakdown.Total()-res.Makespan) > 1e-6*res.Makespan {
		t.Fatalf("breakdown %v != makespan %v", res.Breakdown.Total(), res.Makespan)
	}
	if math.Abs(res.Breakdown.CkptSec-0.25) > 1e-9 { // one L1 + one L2
		t.Fatalf("ckpt = %v", res.Breakdown.CkptSec)
	}
	if res.Breakdown.CommSec <= 0 {
		t.Fatal("comm bucket empty")
	}
}

func TestBreakdownDESCapturesStragglerWaits(t *testing.T) {
	// With per-rank noise, rank 0 waits for stragglers at collectives;
	// those waits must land in the comm/ckpt buckets, keeping the
	// total equal to the makespan-ish wall of rank 0.
	app := lulesh.App(10, 8, 30, lulesh.ScenarioL1, cfg)
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	arch.Bind(lulesh.OpTimestep, perfmodel.Func{Label: "ts", F: func(perfmodel.Params) float64 { return 0.01 }, NoiseSigma: 0.2})
	arch.Bind(lulesh.OpCkptL1, perfmodel.Constant{Label: "l1", Seconds: 0.1})
	res := Run(app, arch, WithMode(DES), WithMonteCarlo(true), WithSeed(9))
	if res.Breakdown.CommSec <= 0 {
		t.Fatal("straggler waits not accounted")
	}
	// Rank 0's own compute is ~30x10ms on average but each draw varies;
	// total buckets must not exceed the makespan.
	if res.Breakdown.Total() > res.Makespan+1e-9 {
		t.Fatalf("breakdown %v exceeds makespan %v", res.Breakdown.Total(), res.Makespan)
	}
}
