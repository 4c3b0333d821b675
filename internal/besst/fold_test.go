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
	"besst/internal/perfmodel"
	"besst/internal/stats"
)

// foldDES is the lockstep fold DES mode is held to. Every Comm and Ckpt
// is a global barrier and every rank draws from its own split stream,
// so a DES trial needs no event engine: a compute step adds each rank's
// draw to that rank's integer-nanosecond clock, a barrier sets every
// clock to the max plus the sync's cost (checkpoint costs drawn from
// the coordinator's stream), and rank 0 keeps the step series and the
// breakdown. Each rank handles one start event, one self event per
// compute step, and one arrival plus one release per sync.
func foldDES(cr *CompiledRun, cfg RunConfig) *Result {
	var master, coord stats.RNG
	master.Reseed(cfg.Seed)
	master.SplitTo(&coord)
	rngs := make([]stats.RNG, cr.app.Ranks)
	for r := range rngs {
		master.SplitTo(&rngs[r])
	}
	clock := make([]des.Time, cr.app.Ranks)
	res := &Result{StepCompletions: []float64{}, CkptTimes: []float64{}}
	comps, syncs := 0, 0
	w := cr.walker(nil)
	for c := w.next(); c != nil; c = w.next() {
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
		case ckLoop:
			res.StepCompletions = append(res.StepCompletions, clock[0].Seconds())
		}
	}
	res.Makespan = slices.Max(clock).Seconds()
	res.Events = uint64(cr.app.Ranks * (1 + comps + 2*syncs))
	return res
}

// requireFoldEqual runs cr in DES mode and through the fold and
// requires byte-equal Result JSON.
func requireFoldEqual(t *testing.T, label string, cr *CompiledRun, cfg RunConfig) {
	t.Helper()
	cfg.Mode = DES
	got, err := json.Marshal(cr.RunWith(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(foldDES(cr, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: DES result differs from the lockstep fold\n DES: %.400s\nfold: %.400s", label, got, want)
	}
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
// blocks — at 8 and 3 ranks, with every op bound to a log-normal noise
// model so each rank's stream matters. A rank count the machine cannot
// host must fail to compile.
func TestDESMatchesLockstepFoldRandom(t *testing.T) {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for op, s := range map[string]float64{
		"c0": 0.003, "c1": 0.0017, "k1": 0.05, "k2": 0.07, "k3": 0.11, "k4": 0.13,
	} {
		arch.Bind(op, perfmodel.Func{Label: op, F: func(perfmodel.Params) float64 { return s }, NoiseSigma: 0.2})
	}
	apps, seen := randomApps(3, 120)
	for _, f := range []string{
		"loop depth 3", "periodic in loop depth 2", "comm barrier", "comm allreduce", "comm broadcast",
		"comm gather", "comm alltoall", "comm halo", "ckpt level 1", "ckpt level 2", "ckpt level 3", "ckpt level 4",
	} {
		if !seen[f] {
			t.Errorf("no random program has %s", f)
		}
	}
	twoComps := false
	for _, app := range apps {
		comps := 0
		for _, c := range unroll(app) {
			switch c.kind {
			case ckComp:
				comps++
				twoComps = twoComps || comps >= 2
			case ckComm, ckCkpt:
				comps = 0
			}
		}
	}
	if !twoComps {
		t.Error("no random program has two compute blocks between syncs")
	}
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

// TestDESSegBoundedBySyncFreeStretch pins the DES walk's memory: the
// shared seg never grows past the program's longest sync-free stretch
// (counted on the unrolled program, its ending sync included) beyond
// append's doubling. That stretch is a few entries for LULESH at any
// step count, and the whole program for one with no sync.
func TestDESSegBoundedBySyncFreeStretch(t *testing.T) {
	arch := beo.NewArchBEO(machine.Quartz(), 2)
	for _, op := range []string{"c0", "c1", "k1", "k2", "k3", "k4", lulesh.OpTimestep, lulesh.OpCkptL1, lulesh.OpCkptL2} {
		arch.Bind(op, perfmodel.Constant{Seconds: 0.01})
	}
	longest := func(app *beo.AppBEO) int {
		most, n := 0, 0
		for _, c := range unroll(app) {
			n++
			most = max(most, n)
			if c.kind == ckComm || c.kind == ckCkpt {
				n = 0
			}
		}
		return most
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
		if want := longest(&a); cap(s.seg) > 2*max(want, 1) {
			t.Errorf("%s: seg capacity %d, longest sync-free stretch %d", a.Name, cap(s.seg), want)
		}
	}
	if n := longest(apps[len(apps)-2]); n > 4 {
		t.Errorf("LULESH L1&L2: longest sync-free stretch %d entries, want a few", n)
	}
	if n := longest(apps[len(apps)-1]); n != 9000 {
		t.Errorf("sync-free program: longest stretch %d entries, want all 9000", n)
	}
}
