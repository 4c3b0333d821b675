package besst

import (
	"math"
	"reflect"
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

func TestCompileCounts(t *testing.T) {
	app := lulesh.App(10, 64, 200, lulesh.ScenarioL1, cfg)
	prog := compile(app)
	// Per step: comp + halo + allreduce (+ ckpt on 5 steps) + stepEnd.
	want := 200*4 + 5
	if len(prog) != want {
		t.Fatalf("compiled length %d, want %d", len(prog), want)
	}
	// Sync ids must be unique and dense.
	seen := map[int]bool{}
	for _, c := range prog {
		if c.kind == ckComm || c.kind == ckCkpt {
			if seen[c.syncID] {
				t.Fatalf("duplicate sync id %d", c.syncID)
			}
			seen[c.syncID] = true
		}
	}
	if len(seen) != 200*2+5 {
		t.Fatalf("sync instances = %d", len(seen))
	}
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

func TestDirectMatchesDESDeterministic(t *testing.T) {
	app := lulesh.App(15, 64, 80, lulesh.ScenarioL1L2, cfg)
	arch := constArch(0.01, 0.1, 0.15)
	des := Run(app, arch, WithMode(DES))
	dir := Run(app, arch, WithMode(Direct))
	if math.Abs(des.Makespan-dir.Makespan) > 1e-9*des.Makespan {
		t.Fatalf("DES %v != Direct %v", des.Makespan, dir.Makespan)
	}
	if len(des.StepCompletions) != len(dir.StepCompletions) {
		t.Fatal("step series length mismatch")
	}
	for i := range des.StepCompletions {
		if math.Abs(des.StepCompletions[i]-dir.StepCompletions[i]) > 1e-9 {
			t.Fatalf("step %d: %v vs %v", i, des.StepCompletions[i], dir.StepCompletions[i])
		}
	}
	if len(des.CkptTimes) != len(dir.CkptTimes) {
		t.Fatal("checkpoint marker mismatch")
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
		c := cinstr{kind: ckComm, pattern: p, bytes: 1 << 16}
		if got := commCost(net, c, 64); got <= 0 {
			t.Fatalf("pattern %v cost %v", p, got)
		}
	}
	halo := cinstr{kind: ckComm, pattern: beo.Halo, bytes: 1 << 16, neighbors: 6}
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
	for i := range cr.prog {
		c := &cr.prog[i]
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
