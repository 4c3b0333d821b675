package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
)

// MetricsSchemaVersion is bumped whenever the METRICS_*.json layout
// changes incompatibly, so downstream tooling can reject documents it
// does not understand. Version 3 added the distributed-execution
// fields: shard completions, shard retry attempts, replica divergences,
// and workers lost. Version 4 added the surrogate-guided DSE search
// fields: per-round evaluation counts and best-so-far means. Version 5
// removed the parallel-engine fields: per-partition rows, the
// cross-partition exchange total, and rebalance decisions.
const MetricsSchemaVersion = 5

// Collector aggregates run-level metrics. It implements the besst
// run-collector hooks (per-trial Monte Carlo timings, engine totals),
// the dse sweep-collector hooks (per-point timings), and the campaign
// fault and distributed-execution hooks — all structurally, so the
// simulation packages never import obs. All methods are safe for
// concurrent use.
type Collector struct {
	mu     sync.Mutex
	clock  func() int64    // guarded by mu
	start  int64           // guarded by mu
	phases []*PhaseMetrics // guarded by mu
	// trials and points are map references passed whole into
	// spanStart/spanDone, which lock before touching entries; the
	// references themselves are never reassigned after construction, so
	// they carry no guarded-by annotation.
	trials map[int]*spanMetrics
	points map[int]*spanMetrics

	// Campaign fault provenance (resilience runner hooks): failed
	// attempts per retried trial, attempt counts of quarantined trials,
	// and how many trials a resumed campaign replayed from its journal.
	retries     map[int]int // guarded by mu
	quarantined map[int]int // guarded by mu
	replayed    int         // guarded by mu

	// Distributed-execution provenance (dist coordinator hooks):
	// completed shards, failed shard attempts per shard, replica
	// divergences per shard, and workers marked lost at least once.
	shardsDone   int               // guarded by mu
	shardRetries map[int]int       // guarded by mu
	divergences  []DivergenceEntry // guarded by mu
	workersDown  map[int]bool      // guarded by mu

	// Surrogate-guided DSE search rounds (dse search hook), in
	// coordinator order.
	searchRounds []SearchRoundEntry // guarded by mu

	eventsProcessed uint64 // guarded by mu
	peakQueueDepth  int    // guarded by mu
}

type spanMetrics struct {
	startWall int64
	durNs     int64
	done      bool
}

// PhaseMetrics is one named wall-clock phase of a run.
type PhaseMetrics struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`

	startWall int64
	open      bool
}

// NewCollector returns an empty collector; its wall-clock epoch starts
// now.
func NewCollector() *Collector {
	c := &Collector{
		clock:        wallClock,
		trials:       map[int]*spanMetrics{},
		points:       map[int]*spanMetrics{},
		retries:      map[int]int{},
		quarantined:  map[int]int{},
		shardRetries: map[int]int{},
		workersDown:  map[int]bool{},
	}
	c.start = c.clock()
	return c
}

// setClock swaps the wall-clock source (tests only) and restarts the
// epoch.
func (c *Collector) setClock(clock func() int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
	c.start = clock()
}

// Run-level hooks (besst / dse structural interfaces).

// TrialStart marks the beginning of Monte Carlo trial i.
func (c *Collector) TrialStart(i int) { c.spanStart(c.trials, i) }

// TrialDone marks the end of Monte Carlo trial i.
func (c *Collector) TrialDone(i int) { c.spanDone(c.trials, i) }

// PointStart marks the beginning of DSE sweep point i.
func (c *Collector) PointStart(i int) { c.spanStart(c.points, i) }

// PointDone marks the end of DSE sweep point i.
func (c *Collector) PointDone(i int) { c.spanDone(c.points, i) }

func (c *Collector) spanStart(m map[int]*spanMetrics, i int) {
	c.mu.Lock()
	m[i] = &spanMetrics{startWall: c.clock()}
	c.mu.Unlock()
}

func (c *Collector) spanDone(m map[int]*spanMetrics, i int) {
	c.mu.Lock()
	if s, ok := m[i]; ok && !s.done {
		s.durNs = c.clock() - s.startWall
		s.done = true
	}
	c.mu.Unlock()
}

// Campaign fault hooks (resilience runner structural interface).

// TrialRetry records that attempt `attempt` of trial i failed and will
// be retried; the per-trial count keeps the highest failed attempt.
func (c *Collector) TrialRetry(i, attempt int) {
	c.mu.Lock()
	if attempt > c.retries[i] {
		c.retries[i] = attempt
	}
	c.mu.Unlock()
}

// TrialQuarantined records that trial i exhausted its attempts and was
// quarantined: the campaign degrades to a partial result without it.
func (c *Collector) TrialQuarantined(i, attempts int) {
	c.mu.Lock()
	c.quarantined[i] = attempts
	c.mu.Unlock()
}

// TrialsReplayed records how many completed trials a resumed campaign
// recovered from its checkpoint journal instead of re-running.
func (c *Collector) TrialsReplayed(n int) {
	c.mu.Lock()
	c.replayed += n
	c.mu.Unlock()
}

// Distributed-execution hooks (dist coordinator / serve backend
// structural interfaces).

// ShardDone records that shard `shard`, covering unit indices
// [lo, hi), reached quorum and was merged.
func (c *Collector) ShardDone(shard, lo, hi int) {
	c.mu.Lock()
	c.shardsDone++
	c.mu.Unlock()
}

// ShardRetry records that attempt `attempt` of one of shard's replica
// slots failed (worker death, timeout, transport error) and the slot
// was reassigned; the per-shard count keeps the highest failed attempt.
func (c *Collector) ShardRetry(shard, attempt int) {
	c.mu.Lock()
	if attempt > c.shardRetries[shard] {
		c.shardRetries[shard] = attempt
	}
	c.mu.Unlock()
}

// ShardDivergence records a replica disagreement on shard: of
// `returned` replica journals, only `agree` matched the accepted
// majority bytes.
func (c *Collector) ShardDivergence(shard, agree, returned int) {
	c.mu.Lock()
	c.divergences = append(c.divergences, DivergenceEntry{Shard: shard, Agree: agree, Returned: returned})
	c.mu.Unlock()
}

// WorkerDown records that worker `worker` was marked unhealthy at
// least once during the campaign.
func (c *Collector) WorkerDown(worker int) {
	c.mu.Lock()
	c.workersDown[worker] = true
	c.mu.Unlock()
}

// SearchRound records one surrogate-guided DSE search round (dse
// structural interface): how many points the round fully simulated,
// the cumulative total, and the best fully simulated mean so far.
func (c *Collector) SearchRound(round, evals, cumEvals int, bestMean float64) {
	c.mu.Lock()
	c.searchRounds = append(c.searchRounds, SearchRoundEntry{
		Round: round, Evaluated: evals, CumEvaluated: cumEvals, BestMeanSec: bestMean,
	})
	c.mu.Unlock()
}

// EngineTotals reports one engine run's totals; calls accumulate so a
// Monte Carlo campaign sums across trials (peak depth takes the max).
func (c *Collector) EngineTotals(processed uint64, peakQueueDepth int) {
	c.mu.Lock()
	c.eventsProcessed += processed
	if peakQueueDepth > c.peakQueueDepth {
		c.peakQueueDepth = peakQueueDepth
	}
	c.mu.Unlock()
}

// Progress is a lightweight live snapshot of campaign advancement —
// the document besst-serve streams to polling clients. Unlike Snapshot
// it samples no runtime metrics.
type Progress struct {
	// TrialsStarted/TrialsDone count Monte Carlo trial brackets;
	// PointsStarted/PointsDone count DSE sweep-point brackets.
	TrialsStarted int `json:"trials_started,omitempty"`
	TrialsDone    int `json:"trials_done,omitempty"`
	PointsStarted int `json:"points_started,omitempty"`
	PointsDone    int `json:"points_done,omitempty"`
	// EventsProcessed is the running DES event total across trials.
	EventsProcessed uint64 `json:"events_processed,omitempty"`
	// Fault provenance so far: failed attempts, quarantined trials, and
	// trials replayed from a checkpoint journal on resume.
	Retries     int `json:"retries,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Replayed    int `json:"replayed,omitempty"`
	// Distributed execution so far: shards merged, shards that needed
	// at least one replica reassignment, replica divergences observed,
	// and workers marked lost.
	ShardsDone       int `json:"shards_done,omitempty"`
	ShardRetries     int `json:"shard_retries,omitempty"`
	ShardDivergences int `json:"shard_divergences,omitempty"`
	WorkersLost      int `json:"workers_lost,omitempty"`
	// Surrogate-guided search so far: refinement rounds completed and
	// points fully simulated (memo hits included).
	SearchRounds    int `json:"search_rounds,omitempty"`
	SearchEvaluated int `json:"search_evaluated,omitempty"`
}

// Progress returns the collector's current campaign progress.
func (c *Collector) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		TrialsStarted:    len(c.trials),
		PointsStarted:    len(c.points),
		EventsProcessed:  c.eventsProcessed,
		Retries:          len(c.retries),
		Quarantined:      len(c.quarantined),
		Replayed:         c.replayed,
		ShardsDone:       c.shardsDone,
		ShardRetries:     len(c.shardRetries),
		ShardDivergences: len(c.divergences),
		WorkersLost:      len(c.workersDown),
	}
	for _, s := range c.trials {
		if s.done {
			p.TrialsDone++
		}
	}
	for _, s := range c.points {
		if s.done {
			p.PointsDone++
		}
	}
	if n := len(c.searchRounds); n > 0 {
		p.SearchRounds = n
		p.SearchEvaluated = c.searchRounds[n-1].CumEvaluated
	}
	return p
}

// PhaseStart opens a named wall-clock phase and returns a function that
// closes it. Phases may nest or overlap; they are reported in start
// order.
func (c *Collector) PhaseStart(name string) (done func()) {
	c.mu.Lock()
	p := &PhaseMetrics{Name: name, startWall: c.clock(), open: true}
	c.phases = append(c.phases, p)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		if p.open {
			p.WallNs = c.clock() - p.startWall
			p.open = false
		}
		c.mu.Unlock()
	}
}

// SpanEntry is one trial or sweep point's timing row.
type SpanEntry struct {
	Index  int   `json:"index"`
	WallNs int64 `json:"wall_ns"`
}

// RetryEntry is one trial's fault-provenance row: how many attempts
// failed (retries) or were consumed before quarantine.
type RetryEntry struct {
	Index    int `json:"index"`
	Attempts int `json:"attempts"`
}

// DivergenceEntry is one replica disagreement: of Returned replica
// journals for Shard, only Agree matched the accepted majority bytes.
type DivergenceEntry struct {
	Shard    int `json:"shard"`
	Agree    int `json:"agree"`
	Returned int `json:"returned"`
}

// SearchRoundEntry is one surrogate-guided DSE search round: the points
// the round fully simulated, the cumulative total after it, and the
// best (lowest) fully simulated mean makespan so far.
type SearchRoundEntry struct {
	Round        int     `json:"round"`
	Evaluated    int     `json:"evaluated"`
	CumEvaluated int     `json:"cum_evaluated"`
	BestMeanSec  float64 `json:"best_mean_sec"`
}

// Metrics is the versioned run-metrics document written to
// results/METRICS_<tool>.json.
type Metrics struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool,omitempty"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`

	EventsProcessed uint64 `json:"events_processed"`
	PeakQueueDepth  int    `json:"peak_queue_depth"`

	Phases  []PhaseMetrics     `json:"phases,omitempty"`
	Trials  []SpanEntry        `json:"trials,omitempty"`
	Points  []SpanEntry        `json:"sweep_points,omitempty"`
	Runtime map[string]float64 `json:"runtime_metrics,omitempty"`

	// Campaign fault provenance: indices that ended quarantined after
	// exhausting their retries, per-trial failed-attempt counts, and
	// the number of trials a resumed campaign replayed from its
	// checkpoint journal.
	FailedIndices  []int        `json:"failed_indices,omitempty"`
	TrialRetries   []RetryEntry `json:"trial_retries,omitempty"`
	ReplayedTrials int          `json:"replayed_trials,omitempty"`

	// Distributed-execution provenance: shards merged, per-shard
	// failed-attempt counts, replica divergences (majority accepted,
	// minority recorded), and workers marked lost at least once.
	ShardsDone   int               `json:"shards_done,omitempty"`
	ShardRetries []RetryEntry      `json:"shard_retries,omitempty"`
	Divergences  []DivergenceEntry `json:"shard_divergences,omitempty"`
	WorkersLost  []int             `json:"workers_lost,omitempty"`

	// Surrogate-guided DSE search provenance: one row per evaluation
	// round, in coordinator order.
	SearchRounds []SearchRoundEntry `json:"search_rounds,omitempty"`
}

// Snapshot freezes the collector's current state into a metrics
// document, including a runtime/metrics sample.
func (c *Collector) Snapshot(tool string) *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &Metrics{
		SchemaVersion:   MetricsSchemaVersion,
		Tool:            tool,
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		EventsProcessed: c.eventsProcessed,
		PeakQueueDepth:  c.peakQueueDepth,
		Runtime:         runtimeSample(),
	}
	for _, p := range c.phases {
		ph := *p
		if ph.open {
			ph.WallNs = c.clock() - ph.startWall
		}
		m.Phases = append(m.Phases, ph)
	}
	m.Trials = spanEntries(c.trials)
	m.Points = spanEntries(c.points)
	m.FailedIndices = sortedKeys(c.quarantined)
	if len(m.FailedIndices) == 0 {
		m.FailedIndices = nil
	}
	for _, i := range sortedKeys(c.retries) {
		m.TrialRetries = append(m.TrialRetries, RetryEntry{Index: i, Attempts: c.retries[i]})
	}
	m.ReplayedTrials = c.replayed
	m.ShardsDone = c.shardsDone
	for _, i := range sortedKeys(c.shardRetries) {
		m.ShardRetries = append(m.ShardRetries, RetryEntry{Index: i, Attempts: c.shardRetries[i]})
	}
	m.Divergences = append([]DivergenceEntry(nil), c.divergences...)
	if len(m.Divergences) == 0 {
		m.Divergences = nil
	}
	for w := range c.workersDown {
		m.WorkersLost = append(m.WorkersLost, w)
	}
	sort.Ints(m.WorkersLost)
	m.SearchRounds = append([]SearchRoundEntry(nil), c.searchRounds...)
	if len(m.SearchRounds) == 0 {
		m.SearchRounds = nil
	}
	return m
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func spanEntries(m map[int]*spanMetrics) []SpanEntry {
	var out []SpanEntry
	for _, i := range sortedKeys(m) {
		if s := m[i]; s.done {
			out = append(out, SpanEntry{Index: i, WallNs: s.durNs})
		}
	}
	return out
}

// runtimeSample reads a curated set of runtime/metrics gauges. Missing
// or unexpected metrics are skipped: the set varies across Go releases
// and the document must not fail to write because of that.
func runtimeSample() map[string]float64 {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/objects:objects",
		"/gc/cycles/total:gc-cycles",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/sched/goroutines:goroutines",
	}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// WriteMetrics writes the collector's snapshot as indented JSON.
func (c *Collector) WriteMetrics(w io.Writer, tool string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot(tool))
}

// MetricsPath returns the conventional metrics filename for a tool,
// e.g. MetricsPath("results", "besst-sim") = "results/METRICS_besst-sim.json".
func MetricsPath(dir, tool string) string {
	return filepath.Join(dir, fmt.Sprintf("METRICS_%s.json", tool))
}
