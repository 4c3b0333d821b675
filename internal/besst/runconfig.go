package besst

import (
	"besst/internal/beo"
	"besst/internal/des"
	"besst/internal/par"
)

// RunConfig is the unified configuration for single runs and Monte
// Carlo replication: construct one with functional options (WithSeed,
// WithConcurrency, WithTracer, ...) or fill the struct directly — the
// zero value is a deterministic single DES run.
type RunConfig struct {
	// Mode selects DES (default) or Direct execution.
	Mode Mode
	// MonteCarlo, when true, draws from each model's sample
	// distribution (reproducing calibration variance); when false the
	// simulator uses deterministic Predict values. Replicate forces it
	// on for every trial.
	MonteCarlo bool
	// Seed drives all randomness.
	Seed uint64
	// PerRankNoise controls whether Direct-mode compute blocks draw
	// independent noise per rank (the step then completes at the
	// slowest rank). It is ignored when MonteCarlo is false, and always
	// in DES mode, where every rank draws from its own stream anyway.
	PerRankNoise bool
	// Workers bounds Monte Carlo replication concurrency. Values <= 0
	// select runtime.GOMAXPROCS workers; 1 forces serial execution.
	// Results are byte-identical for every worker count.
	Workers int
	// Tracer, when non-nil, receives DES lifecycle hooks (dispatch,
	// return, send). Replicate tags each trial's hooks with the
	// trial index as the stream. Tracing is a DES-engine feature:
	// Direct mode has no events and emits nothing. The tracer must be
	// safe for concurrent use when Workers != 1.
	Tracer Tracer
	// Collector, when non-nil, receives run-level metrics callbacks
	// (per-trial timings, engine totals). It must be safe for
	// concurrent use when Workers != 1.
	Collector Collector
}

// Tracer is the DES lifecycle hook interface; see des.Tracer for the
// hook contract. The alias lets callers configure tracing through this
// package alone.
type Tracer = des.Tracer

// Collector receives run-level metrics. The interface is typed with
// builtins only, so the observability layer (internal/obs) implements
// it structurally without this package importing it.
type Collector interface {
	// TrialStart and TrialDone bracket Monte Carlo trial i. Replicate
	// calls them from worker goroutines.
	TrialStart(i int)
	TrialDone(i int)
	// EngineTotals reports one DES run's totals: events processed and
	// the peak event-queue depth. Not called in Direct mode.
	EngineTotals(processed uint64, peakQueueDepth int)
}

// Option mutates a RunConfig.
type Option func(*RunConfig)

// WithMode selects DES or Direct execution.
func WithMode(m Mode) Option { return func(c *RunConfig) { c.Mode = m } }

// WithSeed sets the master seed driving all randomness.
func WithSeed(seed uint64) Option { return func(c *RunConfig) { c.Seed = seed } }

// WithMonteCarlo enables sampling from each model's distribution
// instead of deterministic Predict values. Replicate implies it.
func WithMonteCarlo(on bool) Option { return func(c *RunConfig) { c.MonteCarlo = on } }

// WithPerRankNoise enables independent per-rank compute noise in
// Direct mode (the step then completes at the slowest rank); DES ranks
// always draw independently.
func WithPerRankNoise(on bool) Option { return func(c *RunConfig) { c.PerRankNoise = on } }

// WithConcurrency bounds the replication worker count. Values <= 0
// (the default) select runtime.GOMAXPROCS workers; 1 forces serial
// execution. Results are byte-identical for every worker count.
func WithConcurrency(n int) Option { return func(c *RunConfig) { c.Workers = n } }

// WithTracer attaches a DES lifecycle tracer (nil detaches).
func WithTracer(t Tracer) Option { return func(c *RunConfig) { c.Tracer = t } }

// WithCollector attaches a run-metrics collector (nil detaches).
func WithCollector(col Collector) Option { return func(c *RunConfig) { c.Collector = col } }

// NewRunConfig applies opts to a zero RunConfig.
func NewRunConfig(opts ...Option) RunConfig {
	var cfg RunConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// RunWith executes one replication of the compiled program under cfg.
func (cr *CompiledRun) RunWith(cfg RunConfig) *Result {
	return cr.runStream(cfg, 0)
}

// runStream executes one replication, tagging tracer hooks with the
// given stream (the Monte Carlo trial index; 0 for single runs).
func (cr *CompiledRun) runStream(cfg RunConfig, stream int) *Result {
	if cfg.Mode == Direct {
		return simulateDirect(cr, cfg)
	}
	return simulateDES(cr, cfg, stream)
}

// TrialRunner pre-draws the n per-trial seeds from cfg.Seed and
// returns the per-trial executor behind Replicate: runner(i) executes
// Monte Carlo trial i (seed fan index i, tracer stream i, collector
// brackets) independently of every other trial. Because the seeds are
// drawn up front, runner(i) is a pure function of i — callable in any
// order, from any worker, and re-callable after a crash — which is
// what lets an external campaign runner (internal/resilience) replay a
// checkpoint journal and re-run only the missing indices while staying
// byte-identical to an uninterrupted Replicate.
func (cr *CompiledRun) TrialRunner(n int, opts ...Option) (func(i int) *Result, error) {
	if err := validateTrials(n); err != nil {
		return nil, err
	}
	cfg := NewRunConfig(opts...)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.MonteCarlo = true
	seeds := par.SeedFan(cfg.Seed, n)
	col := cfg.Collector
	return func(i int) *Result {
		c := cfg
		c.Seed = seeds[i]
		if col != nil {
			col.TrialStart(i)
		}
		r := cr.runStream(c, i)
		if col != nil {
			col.TrialDone(i)
		}
		return r
	}, nil
}

// Replicate runs n Monte Carlo replications of the compiled program
// with independent random streams and returns all results — the Monte
// Carlo capability BE-SST uses to "capture the variance that exists in
// the calibration samples". It panics on invalid inputs; ReplicateErr
// is the typed-error variant.
//
// Every trial seed is pre-drawn from the master RNG in index order
// before any trial starts, so seed assignment — and therefore every
// result — is independent of completion order and worker count, and
// identical to the serial reference. A configured Tracer sees each
// trial as its own stream; a configured Collector gets
// TrialStart/TrialDone brackets and per-engine totals.
func (cr *CompiledRun) Replicate(n int, opts ...Option) []*Result {
	out, err := cr.ReplicateErr(n, opts...)
	if err != nil {
		panic(err)
	}
	return out
}

// ReplicateErr is Replicate returning a *ConfigError for non-positive
// trial counts or an invalid configuration instead of panicking.
func (cr *CompiledRun) ReplicateErr(n int, opts ...Option) ([]*Result, error) {
	run, err := cr.TrialRunner(n, opts...)
	if err != nil {
		return nil, err
	}
	cfg := NewRunConfig(opts...)
	out := make([]*Result, n)
	par.ForEach(cfg.Workers, n, func(i int) {
		out[i] = run(i)
	})
	return out, nil
}

// Run compiles app against arch and executes one replication.
func Run(app *beo.AppBEO, arch *beo.ArchBEO, opts ...Option) *Result {
	return Compile(app, arch).RunWith(NewRunConfig(opts...))
}

// Replicate compiles app against arch and runs n Monte Carlo
// replications. See CompiledRun.Replicate for the determinism and
// instrumentation contract. It panics on invalid inputs; ReplicateErr
// is the typed-error variant.
func Replicate(app *beo.AppBEO, arch *beo.ArchBEO, n int, opts ...Option) []*Result {
	out, err := ReplicateErr(app, arch, n, opts...)
	if err != nil {
		panic(err)
	}
	return out
}

// ReplicateErr compiles and replicates with typed-error validation of
// every input: nil app or arch, an app with no ranks, app/arch
// mismatch, non-positive trial count, unknown mode, absurd worker
// count.
func ReplicateErr(app *beo.AppBEO, arch *beo.ArchBEO, n int, opts ...Option) ([]*Result, error) {
	if err := validateTrials(n); err != nil {
		return nil, err
	}
	cr, err := CompileErr(app, arch)
	if err != nil {
		return nil, err
	}
	return cr.ReplicateErr(n, opts...)
}
