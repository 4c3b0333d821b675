package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"besst/internal/benchdata"
	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/des"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/symreg"
	"besst/internal/workflow"
)

// Entry is one gated benchmark. Its name starts with its layer: one
// of perfbench's layer prefixes (des, besst, dse), or symreg for model
// development.
type Entry struct {
	Name string
	// Bench times one op per b.N iteration under `go test -bench`; it
	// is nil for an entry that measures search quality, not time.
	Bench func(b *testing.B)
	// Measure produces the entry's ledger metrics.
	Measure func() (Metrics, error)
}

// Registry is every gated benchmark, each defined once.
var Registry = []Entry{
	micro("des/DESDispatch/ring64", benchDispatch),
	macro("besst/MonteCarloDirect/serial", monteCarloDirect),
	macro("besst/MonteCarloDES/serial", monteCarloDES),
	macro("dse/OverheadSweep/serial", overheadSweep),
	macro("symreg/Fit/casestudy", fitCaseStudy),
	{Name: "dse/Search/grid45/budget0.4", Measure: searchQuality},
}

// Run measures every registry entry in order.
func Run() (*Report, error) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
	}
	for _, e := range Registry {
		m, err := e.Measure()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		rep.Entries = append(rep.Entries, Result{Name: e.Name, Metrics: m})
	}
	return rep, nil
}

// micro is a timing entry whose body loops b.N times itself; its
// allocs/op is testing.Benchmark's average, exact for a warmed
// zero-allocation path.
func micro(name string, bench func(b *testing.B)) Entry {
	return Entry{Name: name, Bench: bench, Measure: func() (Metrics, error) {
		r := testing.Benchmark(bench)
		return Metrics{"ns_per_op": float64(r.NsPerOp()), "allocs_per_op": float64(r.AllocsPerOp())}, nil
	}}
}

// macro is a timing entry over one op that setup builds, once, outside
// the timed region. Its allocs/op comes from stableAllocs.
func macro(name string, setup func() func()) Entry {
	op := sync.OnceValue(setup)
	bench := func(b *testing.B) {
		run := op()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
	return Entry{Name: name, Bench: bench, Measure: func() (Metrics, error) {
		r := testing.Benchmark(bench)
		return Metrics{"ns_per_op": float64(r.NsPerOp()), "allocs_per_op": float64(stableAllocs(op()))}, nil
	}}
}

// stableAllocs measures allocs/op deterministically for a macro op.
// testing.Benchmark's allocs/op folds one-time lazy inits and GC-driven
// sync.Pool refills into a b.N-dependent average, which wobbles the
// rounded count by ±1-2 between runs — fatal under the zero-tolerance
// allocation rule. Here GOMAXPROCS is pinned to 1 (the baseline's
// setting; with more Ps, per-P pool caches and scheduler state add a
// few allocations in some runs), a warmup call performs every lazy
// init and fills the pools, and the garbage collector is paused so no
// pool is cleared mid-measurement. Each call is then counted on its
// own and the smallest of 5 counts wins: the first call after the GC
// refills pools, and the runtime can allocate in the background during
// any call, but neither ever removes an allocation, so the minimum is
// the code path's own per-op count.
func stableAllocs(fn func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return int64(best)
}

// hop forwards a decrementing counter to the next ring node with no
// handler work, so measured time is pure engine overhead.
type hop struct{ next des.LinkID }

func (h *hop) HandleEvent(ctx *des.Context, ev des.Event) {
	if n := ev.Payload.A; n > 0 {
		ctx.Send(h.next, 0, des.Payload{A: n - 1})
	}
}

// benchDispatch delivers b.N events around a 64-node ring on the DES
// engine — schedule, queue, dispatch; one op is one delivered event.
func benchDispatch(b *testing.B) {
	const ringNodes = 64
	e := des.NewEngine()
	hops := make([]hop, ringNodes)
	ids := make([]des.ComponentID, ringNodes)
	for i := range ids {
		ids[i] = e.Register(&hops[i])
	}
	for i := range ids {
		hops[i].next = e.Connect(ids[i], ids[(i+1)%ringNodes], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleAt(0, ids[0], des.Payload{A: int64(b.N)})
	e.Run(0)
}

// caseStudy develops the Quartz LULESH models once for the timing
// entries: symbolic regression, 8 samples per combination, seed 42,
// the parameters the committed baseline was taken with.
var caseStudy = sync.OnceValues(func() (*groundtruth.Emulator, *workflow.Models) {
	em := groundtruth.NewQuartz()
	models, _ := workflow.DevelopLuleshQuartz(em, 8, workflow.SymbolicRegression, 42)
	return em, models
})

// monteCarloDirect is 32 serial Direct-mode Monte Carlo trials with
// per-rank noise over one compiled LULESH run.
func monteCarloDirect() func() {
	em, models := caseStudy()
	app := lulesh.App(15, 216, 60, lulesh.ScenarioL1L2, em.Cost.Config)
	arch := beo.NewArchBEO(em.M, em.Cost.Config.NodeSize)
	workflow.BindLulesh(arch, models)
	cr := besst.Compile(app, arch)
	opts := []besst.Option{
		besst.WithMode(besst.Direct), besst.WithPerRankNoise(true),
		besst.WithSeed(42), besst.WithConcurrency(1),
	}
	return func() { cr.Replicate(32, opts...) }
}

// monteCarloDES is 4 serial DES-mode Monte Carlo trials of perfbench's
// mc-des-dist application (LULESH epr 10, 64 ranks, 200 steps, L1+L2
// checkpoints): every collective is a burst of 64 arrivals and 64
// releases at one timestamp, the traffic the event queue coalesces.
func monteCarloDES() func() {
	em, models := caseStudy()
	app := lulesh.App(10, 64, 200, lulesh.ScenarioL1L2, em.Cost.Config)
	arch := beo.NewArchBEO(em.M, em.Cost.Config.NodeSize)
	workflow.BindLulesh(arch, models)
	cr := besst.Compile(app, arch)
	opts := []besst.Option{besst.WithMode(besst.DES), besst.WithSeed(42), besst.WithConcurrency(1)}
	return func() { cr.Replicate(4, opts...) }
}

// overheadSweep is a serial 12-point DSE overhead sweep.
func overheadSweep() func() {
	em, models := caseStudy()
	cfg := dse.SweepConfig{
		EPRs:      []int{10, 15},
		Ranks:     []int{8, 64},
		Scenarios: []lulesh.Scenario{lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2},
		Timesteps: 40,
		MCRuns:    3,
		Seed:      43,
		Workers:   1,
	}
	return func() { dse.OverheadSweep(models, em.M, em.Cost.Config.NodeSize, cfg) }
}

// fitCaseStudy develops the case study's three op models (LULESH
// timestep and FTI L1/L2 checkpoints over epr and ranks, 5 samples per
// configuration) the way workflow.Develop does: an 80/20 split and a
// default-options symreg.Fit per op.
func fitCaseStudy() func() {
	c := benchdata.CollectLulesh(groundtruth.NewQuartz(), benchdata.CaseStudyPlan(5, 1))
	ops := c.Ops()
	trains := make([]symreg.Dataset, len(ops))
	tests := make([]symreg.Dataset, len(ops))
	for i, op := range ops {
		trains[i], tests[i] = c.Dataset(op, "epr", "ranks").Split(0.2, uint64(i))
	}
	return func() {
		for i, op := range ops {
			symreg.Fit(op, trains[i], tests[i], symreg.Options{Seed: uint64(i)})
		}
	}
}

// searchQuality measures the surrogate search, not its wall time. It
// sweeps a 45-point grid exhaustively for ground truth, searches it
// with budget 0.4 through a fresh point memo, then re-searches through
// the same memo. Metrics: the cold search's full simulations, its
// optimality gap in percent against the exhaustive optimum, the warm
// run's memo hits, and whether the warm result matched the cold one
// byte for byte. Every number is a pure function of the pinned seed.
func searchQuality() (Metrics, error) {
	const (
		seed       = 42
		samples    = 5
		gridPoints = 45 // in the entry name
		budget     = 0.4
	)
	em := groundtruth.NewQuartz()
	models, _ := workflow.DevelopLuleshQuartz(em, samples, workflow.SymbolicRegression, seed)
	cfg := dse.NewSweepConfig(
		dse.WithEPRs(5, 10, 15, 20, 25),
		dse.WithRanks(8, 64, 216),
		dse.WithScenarios(lulesh.ScenarioNoFT, lulesh.ScenarioL1, lulesh.ScenarioL1L2),
		dse.WithTimesteps(20),
		dse.WithMCRuns(2),
		dse.WithSeed(seed+1),
		dse.WithConcurrency(1),
	)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prepare := func() *dse.PreparedSweep {
		return dse.PrepareSweep(models, em.M, em.Cost.Config.NodeSize, cfg)
	}

	// Baseline points coincide with grid points (noft at the anchor
	// rank count is part of the scenario product), so the minimum over
	// all points is the search objective's true optimum.
	truth := prepare()
	if truth.NumPoints() != gridPoints {
		return nil, fmt.Errorf("grid has %d points, the entry name says %d", truth.NumPoints(), gridPoints)
	}
	trueBest := math.Inf(1)
	for i := 0; i < truth.NumPoints(); i++ {
		trueBest = min(trueBest, truth.EvalPoint(i))
	}

	memo := dse.NewMemo(0)
	bundle := fmt.Sprintf("bench|quartz|lulesh|symreg|samples=%d|seed=%d", samples, seed)
	search := func() (*dse.SearchResult, []byte, error) {
		s := prepare()
		s.AttachMemo(memo, bundle)
		res, err := s.Search(dse.SearchConfig{Budget: budget})
		if err != nil {
			return nil, nil, err
		}
		doc, err := json.Marshal(res)
		return res, doc, err
	}
	cold, coldDoc, err := search()
	if err != nil {
		return nil, fmt.Errorf("cold search: %w", err)
	}
	coldHits := memo.Stats().Hits
	_, warmDoc, err := search()
	if err != nil {
		return nil, fmt.Errorf("warm search: %w", err)
	}
	identical := 0.0
	if bytes.Equal(coldDoc, warmDoc) {
		identical = 1
	}
	return Metrics{
		"full_sims":      float64(cold.FullSims),
		"gap_pct":        100 * (cold.Best.MeanSec - trueBest) / trueBest,
		"memo_warm_hits": float64(memo.Stats().Hits - coldHits),
		"warm_identical": identical,
	}, nil
}
