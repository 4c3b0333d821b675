package main

import (
	"math"

	"besst/internal/cli"
)

// MetricDef names one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer is the layer a per-layer metric belongs to; a workload on
	// which the layer does no work reports it as 0 and leaves it out of
	// the printed table.
	Layer string
}

// EndToEnd are the metrics a user of the service sees, reported by
// untraced runs.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "campaign_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "units_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower"},
}

// PerLayer are the metrics of the traced run.
var PerLayer = []MetricDef{
	{"serve.submit_ms", "ms", "lower", "serve"},
	{"serve.settle_ms", "ms", "lower", "serve"},
	{"serve.fetch_ms", "ms", "lower", "serve"},
	{"serve.canon_us", "us", "lower", "serve"},
	{"serve.result_kb", "kB", "lower", "serve"},
	{"serve.compile_hit_ratio", "ratio", "higher", "serve"},
	{"workflow.develop_s", "s", "lower", "workflow"},
	{"workflow.develop_alloc_mb", "MB", "lower", "workflow"},
	{"besst.compile_ms", "ms", "lower", "besst"},
	{"besst.trial_ms", "ms", "lower", "besst"},
	{"besst.trial_alloc_kb", "kB", "lower", "besst"},
	{"des.events_per_trial", "count", "lower", "des"},
	{"des.peak_queue", "count", "lower", "des"},
	{"des.events_per_s", "1/s", "higher", "des"},
	{"perfmodel.polls_per_trial", "count", "lower", "perfmodel"},
	{"perfmodel.poll_ns", "ns", "lower", "perfmodel"},
	{"dse.point_ms", "ms", "lower", "dse"},
	{"dse.search_self_ms", "ms", "lower", "dse"},
	{"dse.full_sims_per_search", "count", "lower", "dse"},
	{"dse.memo_hit_ratio", "ratio", "higher", "dse"},
	{"dist.backend_ms", "ms", "lower", "dist"},
	{"dist.shard_exec_ms", "ms", "lower", "dist"},
	{"dist.shard_kb", "kB", "lower", "dist"},
	{"dist.overhead_ms", "ms", "lower", "dist"},
	{"dist.retries", "count", "lower", "dist"},
	{"dist.divergences", "count", "lower", "dist"},
	{"dist.useful_ratio", "ratio", "higher", "dist"},
	{"go.alloc_mb_per_unit", "MB", "lower", "go"},
	{"go.gc_cpu_pct", "%", "lower", "go"},
	{"trace.overhead_pct", "%", "lower", "trace"},
}

// layerRuns reports whether a layer does work on a workload.
func layerRuns(w *Workload, layer string) bool {
	switch layer {
	case "des", "dist":
		return w.Dist
	case "dse":
		return w.Name == "dse-search"
	}
	return true
}

// Metric is one value of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// resultOf fills a result line from values by definition. A metric
// with no value, or one that is not a number (a median of no samples),
// reports 0 and is named on p.
func resultOf(p *cli.Printer, defs []MetricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			p.Printf("perfbench: metric %s has no value (%v)\n", d.Name, v)
			v = 0
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out
}
