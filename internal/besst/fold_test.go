package besst

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"besst/internal/beo"
	"besst/internal/des"
	"besst/internal/lulesh"
	"besst/internal/machine"
	"besst/internal/obs"
	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// foldDES is the lockstep fold DES mode is held to. Every Comm and Ckpt
// is a global barrier and every rank draws from its own split stream,
// so a DES trial needs no event engine: a compute step adds each rank's
// draw to that rank's integer-nanosecond clock, a barrier sets every
// clock to the max plus the sync's cost (checkpoint costs drawn from
// the coordinator's stream), and rank 0 keeps the step series and the
// breakdown. Result.Events counts the unfused protocol: per rank, one
// start event, one self event per compute step, and one arrival plus
// one release per sync. foldDES also returns the events the fused
// engine delivers: per rank, one start event, one self event per
// compute not directly followed by a sync, and one arrival plus one
// release per run of back-to-back syncs.
func foldDES(cr *CompiledRun, cfg RunConfig) (*Result, uint64) {
	var master, coord stats.RNG
	master.Reseed(cfg.Seed)
	master.SplitTo(&coord)
	rngs := make([]stats.RNG, cr.app.Ranks)
	for r := range rngs {
		master.SplitTo(&rngs[r])
	}
	clock := make([]des.Time, cr.app.Ranks)
	res := &Result{StepCompletions: []float64{}, CkptTimes: []float64{}}
	comps, syncs, delivered := 0, 0, 1
	var prev *cinstr
	w := cr.walker(nil)
	for c := w.next(); c != nil; prev, c = c, w.next() {
		switch c.kind {
		case ckComp:
			for r := range clock {
				dt := c.detCost
				if cfg.MonteCarlo {
					dt = c.sample(&rngs[r])
				}
				if r == 0 {
					res.Breakdown.ComputeSec += dt
				}
				clock[r] += des.FromSeconds(dt)
			}
			comps++
			delivered++
		case ckComm, ckCkpt:
			at, cost := slices.Max(clock), c.detCost
			if c.kind == ckCkpt {
				if cfg.MonteCarlo {
					cost = c.sample(&coord)
				}
				res.CkptTimes = append(res.CkptTimes, at.Seconds()+cost)
			}
			release := at + des.FromSeconds(cost)
			if wait := (release - clock[0]).Seconds(); c.kind == ckCkpt {
				res.Breakdown.CkptSec += wait
			} else {
				res.Breakdown.CommSec += wait
			}
			for r := range clock {
				clock[r] = release
			}
			syncs++
			switch {
			case prev == nil || prev.kind == ckLoop:
				delivered += 2
			case prev.kind == ckComp:
				delivered++ // the compute's self event became the arrival
			}
		case ckLoop:
			res.StepCompletions = append(res.StepCompletions, clock[0].Seconds())
		}
	}
	res.Makespan = slices.Max(clock).Seconds()
	res.Events = uint64(cr.app.Ranks * (1 + comps + 2*syncs))
	return res, uint64(cr.app.Ranks * delivered)
}

// requireFoldEqual runs cr in DES mode and through the fold, and
// requires byte-equal Result JSON and the fold's count of delivered
// events from the engine.
func requireFoldEqual(t *testing.T, label string, cr *CompiledRun, cfg RunConfig) {
	t.Helper()
	col := obs.NewCollector()
	cfg.Mode, cfg.Collector = DES, col
	got, err := json.Marshal(cr.RunWith(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fold, delivered := foldDES(cr, cfg)
	want, err := json.Marshal(fold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: DES result differs from the lockstep fold\n DES: %.400s\nfold: %.400s", label, got, want)
	}
	if got := col.Progress().EventsProcessed; got != delivered {
		t.Fatalf("%s: engine delivered %d events, the fold counts %d", label, got, delivered)
	}
}

// syncShapes reports which sync neighbourhoods the fused engine treats
// specially occur in app's dynamic instruction sequence.
func syncShapes(app *beo.AppBEO) map[string]bool {
	seen := map[string]bool{}
	var prev2, prev ckind = -1, -1
	for _, c := range unroll(app) {
		sync := c.kind == ckComm || c.kind == ckCkpt
		switch {
		case sync && (prev == ckComm || prev == ckCkpt):
			seen["a run of two or more syncs"] = true
		case sync && prev == ckLoop && (prev2 == ckComm || prev2 == ckCkpt):
			seen["two syncs split only by a step end"] = true
		case sync && prev == ckComp:
			seen["a compute directly before a sync"] = true
		case c.kind == ckComp && prev == ckComp:
			seen["a compute followed by a compute"] = true
		}
		prev2, prev = prev, c.kind
	}
	return seen
}

// foldArch binds the ops randomApps uses to log-normal noise models, so
// each rank's stream matters, and z0 to a zero-cost constant.
func foldArch() *beo.ArchBEO {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for op, s := range map[string]float64{
		"c0": 0.003, "c1": 0.0017, "k1": 0.05, "k2": 0.07, "k3": 0.11, "k4": 0.13,
	} {
		arch.Bind(op, perfmodel.Func{Label: op, F: func(perfmodel.Params) float64 { return s }, NoiseSigma: 0.2})
	}
	arch.Bind("z0", perfmodel.Constant{Label: "z0", Seconds: 0})
	return arch
}

// TestDESMatchesLockstepFold holds DES mode to the fold byte for byte,
// Events included, on LULESH (No FT, L1, L1&L2 at 8, 64 and 216 ranks,
// Monte Carlo on and off, five seeds) under log-normal noise models.
func TestDESMatchesLockstepFold(t *testing.T) {
	arch := noisyArch()
	for _, sc := range []lulesh.Scenario{lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2} {
		for _, ranks := range []int{8, 64, 216} {
			cr := Compile(lulesh.App(10, ranks, 45, sc, cfg), arch)
			for _, mc := range []bool{false, true} {
				for seed := uint64(1); seed <= 5; seed++ {
					label := fmt.Sprintf("%s ranks=%d mc=%v seed=%d", sc.Name, ranks, mc, seed)
					requireFoldEqual(t, label, cr, RunConfig{MonteCarlo: mc, Seed: seed})
				}
			}
		}
	}
}

// TestDESMatchesLockstepFoldRandom holds DES mode to the fold on
// random programs — nested loops, periodics, every comm pattern,
// checkpoint levels 1-4, barrier intervals holding several compute
// blocks, runs of back-to-back syncs — at 8 and 3 ranks, with every op
// bound to a log-normal noise model so each rank's stream matters, and
// on a program whose zero-cost computes end at syncs, so their arrivals
// land at the release time itself. A rank count the machine cannot
// host must fail to compile.
func TestDESMatchesLockstepFoldRandom(t *testing.T) {
	arch := foldArch()
	apps, seen := randomApps(3, 120)
	for _, app := range apps {
		for f := range syncShapes(app) {
			seen[f] = true
		}
	}
	for _, f := range []string{
		"loop depth 3", "periodic in loop depth 2", "comm barrier", "comm allreduce", "comm broadcast",
		"comm gather", "comm alltoall", "comm halo", "ckpt level 1", "ckpt level 2", "ckpt level 3", "ckpt level 4",
		"a run of two or more syncs", "two syncs split only by a step end",
		"a compute directly before a sync", "a compute followed by a compute",
	} {
		if !seen[f] {
			t.Errorf("no random program has %s", f)
		}
	}
	apps = append(apps, &beo.AppBEO{Name: "zero-cost", Ranks: 8, Program: []beo.Instr{
		beo.Comp{Op: "z0"}, beo.Comm{Pattern: beo.Barrier},
		beo.Loop{Count: 4, Body: []beo.Instr{
			beo.Comp{Op: "c0"}, beo.Comp{Op: "z0"}, beo.Comm{Pattern: beo.Allreduce, Bytes: 8},
			beo.Comp{Op: "z0"}, beo.Ckpt{Op: "k1", Level: 1}, beo.Comm{Pattern: beo.Barrier},
		}},
	}})
	// A rank count the machine cannot host never reaches either side.
	big := *apps[0]
	big.Ranks = arch.Machine.Nodes*arch.RanksPerNode + 1
	if _, err := CompileErr(&big, arch); err == nil {
		t.Errorf("%d ranks on %d nodes compiled", big.Ranks, arch.Machine.Nodes)
	}
	for i, app := range apps {
		for _, ranks := range []int{8, 3} {
			a := *app
			a.Ranks = ranks
			cr := Compile(&a, arch)
			for _, mc := range []bool{false, true} {
				label := fmt.Sprintf("%s ranks=%d mc=%v", app.Name, ranks, mc)
				requireFoldEqual(t, label, cr, RunConfig{MonteCarlo: mc, Seed: uint64(100 + i)})
			}
		}
	}
}

// FuzzDESFold holds DES mode to the fold on one random program per
// seed, at 1 to 8 ranks, with Monte Carlo off and on: byte-equal
// Result JSON and the fold's count of delivered events.
func FuzzDESFold(f *testing.F) {
	for _, seed := range []uint64{1, 3, 17, 9001} {
		f.Add(seed, uint8(seed))
	}
	arch := foldArch()
	f.Fuzz(func(t *testing.T, seed uint64, ranks uint8) {
		apps, _ := randomApps(seed, 1)
		app := *apps[0]
		app.Ranks = 1 + int(ranks%8)
		cr := Compile(&app, arch)
		for _, mc := range []bool{false, true} {
			label := fmt.Sprintf("seed=%d ranks=%d mc=%v", seed, app.Ranks, mc)
			requireFoldEqual(t, label, cr, RunConfig{MonteCarlo: mc, Seed: seed})
		}
	})
}

// TestDESSegBoundedBySyncFreeStretch pins the DES walk's memory: the
// shared seg never grows past the program's longest sync-free stretch
// (counted on the unrolled program, its ending sync included) plus its
// longest run of back-to-back syncs, beyond append's doubling. That is
// a few entries for LULESH at any step count, and the whole program for
// one with no sync.
func TestDESSegBoundedBySyncFreeStretch(t *testing.T) {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for _, op := range []string{"c0", "c1", "k1", "k2", "k3", "k4", lulesh.OpTimestep, lulesh.OpCkptL1, lulesh.OpCkptL2} {
		arch.Bind(op, perfmodel.Constant{Seconds: 0.01})
	}
	longest := func(app *beo.AppBEO) (stretch, run int) {
		n, syncs := 0, 0
		for _, c := range unroll(app) {
			n++
			stretch = max(stretch, n)
			if c.kind == ckComm || c.kind == ckCkpt {
				n = 0
				syncs++
				run = max(run, syncs)
			} else {
				syncs = 0
			}
		}
		return stretch, run
	}
	apps, _ := randomApps(5, 60)
	apps = append(apps,
		lulesh.App(10, 8, 2000, lulesh.ScenarioL1L2, cfg),
		&beo.AppBEO{Name: "sync-free", Ranks: 8, Program: []beo.Instr{
			beo.Loop{Count: 3000, Body: []beo.Instr{beo.Comp{Op: "c0"}, beo.Comp{Op: "c1"}}},
		}},
	)
	for _, app := range apps {
		a := *app
		a.Ranks = 8
		s := newDesSim(Compile(&a, arch))
		s.run(RunConfig{MonteCarlo: true, Seed: 1}, 0)
		stretch, run := longest(&a)
		if cap(s.seg) > 2*max(stretch+run, 1) {
			t.Errorf("%s: seg capacity %d, longest sync-free stretch %d, longest sync run %d",
				a.Name, cap(s.seg), stretch, run)
		}
	}
	if n, run := longest(apps[len(apps)-2]); n > 4 || run > 4 {
		t.Errorf("LULESH L1&L2: longest sync-free stretch %d, sync run %d entries, want a few", n, run)
	}
	if n, run := longest(apps[len(apps)-1]); n != 9000 || run != 0 {
		t.Errorf("sync-free program: longest stretch %d, sync run %d entries, want all 9000 and none", n, run)
	}
}
