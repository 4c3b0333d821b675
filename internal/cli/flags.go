package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"besst/internal/besst"
	"besst/internal/des"
	"besst/internal/dse"
	"besst/internal/obs"
	"besst/internal/resilience"
)

// CommonFlags is the flag set shared by every besst command: seed
// control, machine-readable output, and the observability switches
// (tracing, metrics, profiling). Register it with RegisterCommon so the
// mains stop carrying drift-prone copies of the same flag block. The
// campaign flags (worker count, checkpointing, chaos) are registered
// separately, by RegisterCampaign, and only in the tools that run a
// campaign; a tool without one rejects them as unknown flags instead
// of accepting and ignoring them.
type CommonFlags struct {
	// Workers bounds worker-pool concurrency (<= 0: GOMAXPROCS).
	Workers int
	// Seed is the master random seed.
	Seed uint64
	// JSON selects machine-readable primary output where the tool
	// defines one.
	JSON bool
	// Trace, when non-empty, records DES lifecycle events and writes
	// them to this path in Chrome trace_event JSON (opens in
	// chrome://tracing or Perfetto).
	Trace string
	// TraceCap bounds the trace ring buffer (records; <= 0: default).
	TraceCap int
	// Metrics, when non-empty, writes a versioned run-metrics JSON
	// document. A path ending in .json is used verbatim; anything else
	// is treated as a directory and the conventional
	// METRICS_<tool>.json name is appended.
	Metrics string
	// CPUProfile and MemProfile, when non-empty, capture pprof CPU and
	// heap profiles to these paths.
	CPUProfile string
	// MemProfile is the heap-profile output path.
	MemProfile string
	// Ckpt, when non-empty, checkpoints the tool's campaign to an
	// append-only journal. A path ending in .jsonl is used verbatim;
	// anything else is treated as a directory and the conventional
	// CKPT_<tool>.jsonl name is appended.
	Ckpt string
	// Resume replays an existing checkpoint journal and re-runs only
	// the missing trials. With -ckpt unset it looks in "results".
	Resume bool
	// CkptEvery is how many completed trials may ride in the journal's
	// write buffer before an fsync (the most a crash can lose).
	CkptEvery int
	// Chaos injects deterministic panics and delays into each trial at
	// this per-attempt rate (0 disables) to exercise the retry and
	// quarantine machinery.
	Chaos float64
}

// RegisterCommon registers the shared flags on fs (use flag.CommandLine
// in a main) and returns the bound struct.
func RegisterCommon(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	fs.Uint64Var(&f.Seed, "seed", 42, "master random seed")
	fs.BoolVar(&f.JSON, "json", false, "emit machine-readable JSON output where the tool defines one")
	fs.StringVar(&f.Trace, "trace", "",
		"write a Chrome trace_event JSON trace of the DES run to this path")
	fs.IntVar(&f.TraceCap, "trace-cap", 0,
		"trace ring-buffer capacity in records (<=0: default 65536)")
	fs.StringVar(&f.Metrics, "metrics", "",
		"write run metrics JSON to this path (or METRICS_<tool>.json inside this directory)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this path")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this path")
	return f
}

// RegisterCampaign registers the campaign flags on fs, bound to f:
// worker count, checkpoint journal, resume, fsync cadence and chaos
// injection. Only tools that run a campaign (besst-sim, besst-dse)
// call it.
func (f *CommonFlags) RegisterCampaign(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0,
		"concurrent workers (<=0: GOMAXPROCS); results are identical for every worker count")
	fs.StringVar(&f.Ckpt, "ckpt", "",
		"checkpoint the campaign to this journal (or CKPT_<tool>.jsonl inside this directory)")
	fs.BoolVar(&f.Resume, "resume", false,
		"resume from the checkpoint journal, re-running only missing trials (default journal dir: results)")
	fs.IntVar(&f.CkptEvery, "ckpt-every", 16,
		"fsync the checkpoint journal every N completed trials (<=0: every trial)")
	fs.Float64Var(&f.Chaos, "chaos", 0,
		"inject deterministic panics and delays into each trial at this rate (testing the fault envelope)")
}

// Session is the live observability state behind one command run:
// profiles started, recorders allocated. Create it with Begin after
// flag parsing; call Close before exit to flush everything to disk.
type Session struct {
	flags   *CommonFlags
	tool    string
	stopCPU func() error
	trace   *obs.TraceBuffer
	// collector always exists (Phase timings are recorded regardless)
	// but is only handed to runs — and only written out — when -metrics
	// asks for it, keeping uninstrumented runs on the nil-guarded fast
	// path.
	collector *obs.Collector
}

// Begin starts the requested instrumentation (CPU profile, trace
// buffer) for the named tool.
func (f *CommonFlags) Begin(tool string) (*Session, error) {
	s := &Session{flags: f, tool: tool, collector: obs.NewCollector()}
	if f.CPUProfile != "" {
		stop, err := obs.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		s.stopCPU = stop
	}
	if f.Trace != "" {
		s.trace = obs.NewTraceBuffer(f.TraceCap)
	}
	return s, nil
}

// metricsEnabled reports whether run metrics were requested.
func (s *Session) metricsEnabled() bool { return s.flags.Metrics != "" }

// EngineTracer returns the tracer to install on DES engines: the trace
// buffer, or an untyped nil when -trace was not requested. A typed-nil
// *TraceBuffer would put every engine on the instrumented path, so the
// nil case must stay a bare interface.
func (s *Session) EngineTracer() des.Tracer {
	if s.trace == nil {
		return nil
	}
	return s.trace
}

// RunCollector returns the besst run collector, or nil when metrics
// were not requested.
func (s *Session) RunCollector() besst.Collector {
	if !s.metricsEnabled() {
		return nil
	}
	return s.collector
}

// SweepCollector returns the DSE sweep collector, or nil when metrics
// were not requested.
func (s *Session) SweepCollector() dse.Collector {
	if !s.metricsEnabled() {
		return nil
	}
	return s.collector
}

// RunOptions assembles the besst options the common flags imply: seed,
// concurrency, and — when requested — tracer and collector.
func (s *Session) RunOptions() []besst.Option {
	opts := []besst.Option{
		besst.WithSeed(s.flags.Seed),
		besst.WithConcurrency(s.flags.Workers),
	}
	if t := s.EngineTracer(); t != nil {
		opts = append(opts, besst.WithTracer(t))
	}
	if c := s.RunCollector(); c != nil {
		opts = append(opts, besst.WithCollector(c))
	}
	return opts
}

// Phase opens a named wall-clock phase and returns its closer. Phase
// timings are always recorded; they are only written to disk when
// -metrics is set (and surfaced by tools with a JSON summary).
func (s *Session) Phase(name string) func() {
	return s.collector.PhaseStart(name)
}

// Phases snapshots the phase timings recorded so far.
func (s *Session) Phases() []obs.PhaseMetrics {
	return s.collector.Snapshot(s.tool).Phases
}

// CampaignEnabled reports whether any campaign-resilience flag asks
// for a checkpoint journal or chaos injection — what besst-dse -search
// refuses, since its persistence is the memo.
func (s *Session) CampaignEnabled() bool {
	return s.flags.Ckpt != "" || s.flags.Resume || s.flags.Chaos > 0
}

// ckptPath resolves the -ckpt value for this tool: a .jsonl path is
// used verbatim, anything else is a directory getting the conventional
// CKPT_<tool>.jsonl name; -resume with no -ckpt defaults to the
// results directory. Empty when checkpointing is off (chaos-only
// campaigns run without a journal).
func (s *Session) ckptPath() string {
	dir := s.flags.Ckpt
	if dir == "" {
		if !s.flags.Resume {
			return ""
		}
		dir = "results"
	}
	if strings.HasSuffix(dir, ".jsonl") {
		return dir
	}
	return resilience.JournalPath(dir, s.tool)
}

// Campaign assembles the resilience campaign the common flags imply.
// configHash must fingerprint every flag that influences trial results
// (build it with resilience.ConfigHash); it is what stops -resume from
// splicing a stale journal into a differently configured run. The
// session collector always receives fault provenance, so quarantines
// and retries land in METRICS_<tool>.json whenever -metrics is set.
func (s *Session) Campaign(configHash string) resilience.Campaign {
	return resilience.Campaign{
		Tool:       s.tool,
		Path:       s.ckptPath(),
		ConfigHash: configHash,
		Seed:       s.flags.Seed,
		Workers:    s.flags.Workers,
		CkptEvery:  s.flags.CkptEvery,
		Resume:     s.flags.Resume,
		Chaos: resilience.ChaosConfig{
			PanicRate: s.flags.Chaos,
			DelayRate: s.flags.Chaos,
			Seed:      s.flags.Seed ^ 0x9e3779b97f4a7c15, // distinct from trial seeds
		},
		Collector: s.collector,
	}
}

// ReportCampaign prints the campaign's fault provenance to p: replayed
// trials on resume, and quarantined indices when the run degraded to a
// partial result. Tools call it right after the campaign completes so
// partial output is always labeled as such.
func ReportCampaign(p *Printer, rep resilience.Report) {
	if rep.Replayed > 0 {
		p.Printf("resumed: %d of %d trials replayed from checkpoint, %d re-run\n",
			rep.Replayed, rep.N, rep.N-rep.Replayed)
	}
	if len(rep.FailedIndices) > 0 {
		p.Printf("WARNING: %d of %d trials quarantined after retries (indices %v); results are partial\n",
			len(rep.FailedIndices), rep.N, rep.FailedIndices)
	}
}

// metricsPath resolves the -metrics value: a .json path is used
// verbatim, anything else is a directory getting the conventional
// METRICS_<tool>.json name.
func (s *Session) metricsPath() string {
	if strings.HasSuffix(s.flags.Metrics, ".json") {
		return s.flags.Metrics
	}
	return obs.MetricsPath(s.flags.Metrics, s.tool)
}

// Close stops profiling and flushes every requested artifact (CPU and
// heap profiles, trace JSON, metrics JSON). It returns the first
// failure but attempts all of them.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.stopCPU != nil {
		keep(s.stopCPU())
		s.stopCPU = nil
	}
	if s.flags.MemProfile != "" {
		keep(obs.WriteHeapProfile(s.flags.MemProfile))
	}
	if s.trace != nil {
		keep(writeFile(s.flags.Trace, func(f *os.File) error {
			return s.trace.WriteChromeTrace(f)
		}))
	}
	if s.metricsEnabled() {
		keep(writeFile(s.metricsPath(), func(f *os.File) error {
			return s.collector.WriteMetrics(f, s.tool)
		}))
	}
	return first
}

// writeFile creates path (making parent directories) and streams
// content into it, reporting create, write, and close failures.
func writeFile(path string, write func(*os.File) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cli: mkdir %s: %w", dir, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cli: create %s: %w", path, err)
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("cli: write %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("cli: close %s: %w", path, cerr)
	}
	return nil
}
