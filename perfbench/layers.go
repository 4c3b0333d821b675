package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"besst/internal/beo"
	"besst/internal/besst"
	"besst/internal/dse"
	"besst/internal/groundtruth"
	"besst/internal/lulesh"
	"besst/internal/perfmodel"
	"besst/internal/serve"
	"besst/internal/stats"
	"besst/internal/workflow"
)

// runtimeSample is a snapshot of the Go runtime and process counters
// the benchmark reports.
type runtimeSample struct {
	allocBytes float64 // cumulative heap allocation, exact
	liveBytes  float64 // live heap after the last GC
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // GOMAXPROCS integrated over wall time
	idleCPU    float64 // the idle part of totalCPU
	procCPU    time.Duration
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	// runtime/metrics' allocation counter lags by per-P caches; the
	// stop-the-world MemStats read is exact, which the per-trial
	// allocation of a short probe needs.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: float64(mem.TotalAlloc),
		liveBytes:  val(0),
		gcCPU:      val(1),
		totalCPU:   val(2),
		idleCPU:    val(3),
		procCPU:    processCPU(),
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bracketCollector records Start/Done brackets — besst trials or dse
// sweep points — as spans, and sums the DES engine totals.
type bracketCollector struct {
	rec    *Recorder
	name   string
	parent int64

	mu     sync.Mutex
	open   map[int]int64 // guarded by mu
	events uint64        // guarded by mu
	peak   int           // guarded by mu
}

func newBracketCollector(rec *Recorder, name string, parent int64) *bracketCollector {
	return &bracketCollector{rec: rec, name: name, parent: parent, open: make(map[int]int64)}
}

func (c *bracketCollector) start(i int) {
	t := c.rec.Now()
	c.mu.Lock()
	c.open[i] = t
	c.mu.Unlock()
}

func (c *bracketCollector) done(i int) {
	t := c.rec.Now()
	c.mu.Lock()
	start := c.open[i]
	delete(c.open, i)
	c.mu.Unlock()
	c.rec.Add(Span{Parent: c.parent, Name: c.name, Start: start, End: t, Units: 1})
}

func (c *bracketCollector) TrialStart(i int) { c.start(i) }
func (c *bracketCollector) TrialDone(i int)  { c.done(i) }
func (c *bracketCollector) PointStart(i int) { c.start(i) }
func (c *bracketCollector) PointDone(i int)  { c.done(i) }

// totals returns the summed engine totals.
func (c *bracketCollector) totals() (events uint64, peak int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events, c.peak
}

func (c *bracketCollector) EngineTotals(processed uint64, peak int) {
	c.mu.Lock()
	c.events += processed
	c.peak = max(c.peak, peak)
	c.mu.Unlock()
}

// countingModel counts every poll of a performance model and keeps the
// first pollKeep of them, so their cost can be timed apart from the
// trials (see pollNS).
type countingModel struct {
	perfmodel.Model
	log *pollLog
}

// poll is one recorded model call.
type poll struct {
	m      perfmodel.Model
	p      perfmodel.Params
	sample bool
}

type pollLog struct {
	mu    sync.Mutex
	n     int64  // guarded by mu
	kept  []poll // guarded by mu
	limit int
}

func (l *pollLog) add(m perfmodel.Model, p perfmodel.Params, sample bool) {
	l.mu.Lock()
	l.n++
	if len(l.kept) < l.limit {
		l.kept = append(l.kept, poll{m: m, p: maps.Clone(p), sample: sample})
	}
	l.mu.Unlock()
}

func (m countingModel) Predict(p perfmodel.Params) float64 {
	m.log.add(m.Model, p, false)
	return m.Model.Predict(p)
}

func (m countingModel) Sample(p perfmodel.Params, rng *stats.RNG) float64 {
	m.log.add(m.Model, p, true)
	return m.Model.Sample(p, rng)
}

// pollNS is the mean cost of one model call, from replaying the recorded
// calls in a tight loop with one clock read per pass over them.
func pollNS(polls []poll) float64 {
	if len(polls) == 0 {
		return 0
	}
	rng := stats.NewRNG(1)
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < pollTime {
		for _, c := range polls {
			if c.sample {
				c.m.Sample(c.p, rng)
			} else {
				c.m.Predict(c.p)
			}
		}
		calls += len(polls)
	}
	return float64(time.Since(t0)) / float64(calls)
}

// Probe repetition counts.
const (
	compileReps = 15
	// dseProbeTrials replicates the representative design point; four
	// trials per point are too few for a median.
	dseProbeTrials = 16
	// dseProbeSearches is how many of the workload's fresh searches run
	// in-process with sweep-point brackets.
	dseProbeSearches = 2
	// pollKeep is how many model calls the counted trials record for
	// timing, and pollTime how long the replay of them runs.
	pollKeep = 4096
	pollTime = 100 * time.Millisecond
)

// trialShape is the compiled application and trial configuration a
// workload's trials run.
type trialShape struct {
	app    serve.AppSpec
	mode   besst.Mode
	noise  bool
	trials int
	seed   uint64
}

// shapeOf returns the trial shape of a workload. For sweeps it is the
// grid's middle design point under the sweep's trial settings.
func shapeOf(req Request) (trialShape, error) {
	var cr serve.CampaignRequest
	if err := json.Unmarshal(req.Body, &cr); err != nil {
		return trialShape{}, fmt.Errorf("decode request: %w", err)
	}
	if cr.Sweep != nil {
		return trialShape{
			app:    serve.AppSpec{EPR: 15, Ranks: 64, Steps: cr.Sweep.Timesteps, Scenario: "l1l2"},
			mode:   besst.Direct,
			noise:  true,
			trials: dseProbeTrials,
			seed:   cr.Run.Seed,
		}, nil
	}
	mode, err := besst.ParseMode(cr.Run.Mode)
	if err != nil {
		return trialShape{}, err
	}
	return trialShape{app: *cr.App, mode: mode, noise: cr.Run.PerRankNoise, trials: cr.Trials, seed: cr.Run.Seed}, nil
}

// probeLayers calls each layer's public functions directly, as the
// service would for this workload, and returns the per-layer metrics
// those calls measure. sample is a request from the workload; searches
// are the workload's fresh search requests (dse-search only).
func probeLayers(sample Request, searches []Request, rec *Recorder) (map[string]float64, error) {
	m := map[string]float64{}
	shape, err := shapeOf(sample)
	if err != nil {
		return nil, err
	}

	// workflow: model development, as a cold compile cache runs it.
	em := groundtruth.NewQuartz()
	var models *workflow.Models
	a0 := sampleRuntime().allocBytes
	dev := rec.Time("workflow.develop", "", 0, func() {
		models, _ = workflow.DevelopLuleshQuartz(em, modelSpec.Samples, workflow.SymbolicRegression, modelSpec.Seed)
	})
	m["workflow.develop_s"] = dev.Dur().Seconds()
	m["workflow.develop_alloc_mb"] = (sampleRuntime().allocBytes - a0) / 1e6

	sc, err := lulesh.ParseScenario(shape.app.Scenario)
	if err != nil {
		return nil, err
	}
	cfg := em.Cost.Config
	// compile builds the app and architecture as the service does and
	// times the CompileErr call; wrap, when set, replaces every bound
	// model.
	compile := func(wrap func(perfmodel.Model) perfmodel.Model) (cr *besst.CompiledRun, err error) {
		app := lulesh.App(shape.app.EPR, shape.app.Ranks, shape.app.Steps, sc, cfg)
		arch := beo.NewArchBEO(em.M, cfg.NodeSize)
		workflow.BindLulesh(arch, models)
		name := "besst.compile"
		if wrap != nil {
			name = "besst.compile_counted"
			for op, pm := range arch.Models {
				arch.Bind(op, wrap(pm))
			}
		}
		rec.Time(name, "", 0, func() { cr, err = besst.CompileErr(app, arch) })
		return cr, err
	}

	// besst: compile, then one replication of the workload's trials,
	// serially so each trial span is one trial's time.
	var cr *besst.CompiledRun
	for i := 0; i < compileReps; i++ {
		if cr, err = compile(nil); err != nil {
			return nil, err
		}
	}
	m["besst.compile_ms"] = Median(durMS(rec.Named("besst.compile")))

	opts := func(col besst.Collector) []besst.Option {
		return []besst.Option{
			besst.WithMode(shape.mode), besst.WithPerRankNoise(shape.noise),
			besst.WithSeed(shape.seed), besst.WithConcurrency(1), besst.WithCollector(col),
		}
	}
	col := newBracketCollector(rec, "besst.trial", 0)
	a0 = sampleRuntime().allocBytes
	if _, err := cr.ReplicateErr(shape.trials, opts(col)...); err != nil {
		return nil, err
	}
	alloc := sampleRuntime().allocBytes - a0
	trials := rec.Named("besst.trial")
	m["besst.trial_ms"] = Median(durMS(trials))
	m["besst.trial_alloc_kb"] = alloc / float64(shape.trials) / 1e3

	// des: exact engine totals (zero in Direct mode, which has none).
	var busy time.Duration
	for _, t := range trials {
		busy += t.Dur()
	}
	events, peak := col.totals()
	m["des.events_per_trial"] = float64(events) / float64(shape.trials)
	m["des.peak_queue"] = float64(peak)
	m["des.events_per_s"] = 0
	if events > 0 {
		m["des.events_per_s"] = float64(events) / busy.Seconds()
	}

	// perfmodel: the same trials with every bound model counted.
	log := &pollLog{limit: pollKeep}
	counted, err := compile(func(pm perfmodel.Model) perfmodel.Model {
		return countingModel{Model: pm, log: log}
	})
	if err != nil {
		return nil, err
	}
	if _, err := counted.ReplicateErr(shape.trials, opts(nil)...); err != nil {
		return nil, err
	}
	m["perfmodel.polls_per_trial"] = float64(log.n) / float64(shape.trials)
	m["perfmodel.poll_ns"] = pollNS(log.kept)

	// dse: fresh searches with sweep-point brackets and no memo, so
	// every evaluated point is simulated.
	var selfMS []float64
	var fullSims int
	for _, req := range searches {
		var cr serve.CampaignRequest
		if err := json.Unmarshal(req.Body, &cr); err != nil {
			return nil, fmt.Errorf("decode search request: %w", err)
		}
		id, _, _, _ := serve.HashRequest(req.Body)
		scs := make([]lulesh.Scenario, len(cr.Sweep.Scenarios))
		for i, name := range cr.Sweep.Scenarios {
			if scs[i], err = lulesh.ParseScenario(name); err != nil {
				return nil, err
			}
		}
		root := Span{ID: rec.NewID(), Campaign: id, Name: "dse.search"}
		pcol := newBracketCollector(rec, "dse.point", root.ID)
		sweep := dse.NewSweepConfig(
			dse.WithEPRs(cr.Sweep.EPRs...), dse.WithRanks(cr.Sweep.Ranks...), dse.WithScenarios(scs...),
			dse.WithTimesteps(cr.Sweep.Timesteps), dse.WithMCRuns(cr.Sweep.MCRuns), dse.WithSeed(cr.Run.Seed),
			dse.WithCollector(pcol))
		prepared := dse.PrepareSweep(models, em.M, cfg.NodeSize, sweep)
		root.Start = rec.Now()
		res, err := prepared.Search(dse.SearchConfig{Budget: cr.Sweep.Search.Budget})
		root.End = rec.Now()
		if err != nil {
			return nil, err
		}
		rec.Add(root)
		selfMS = append(selfMS, float64(SelfTime(root, ChildrenOf(rec.Spans(), root.ID)))/1e6)
		fullSims += res.FullSims
	}
	if len(searches) > 0 {
		m["dse.point_ms"] = Median(durMS(rec.Named("dse.point")))
		m["dse.search_self_ms"] = Median(selfMS)
		m["dse.full_sims_per_search"] = float64(fullSims) / float64(len(searches))
	}
	return m, nil
}
