// Package ledger is the one benchmark ledger: a registry that defines
// every gated benchmark once (Registry), the versioned report a run of
// it produces (Report, Load), and the fixed rule table a fresh report
// is held to against the committed baseline (Compare).
//
// besst-bench -ledger runs the registry, writes results/BENCH.json and
// gates it against results/BENCH_baseline.json; BenchmarkLedger in this
// package times the same entries under `go test -bench Ledger`, so the
// gate and the Go benchmark harness measure the same code.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// SchemaVersion stamps Report documents; Load rejects any other.
const SchemaVersion = 1

// Metrics maps a metric name to its value. Every name has a row in the
// rule table. A boolean metric is 1 for true and 0 for false.
type Metrics map[string]float64

// Result is one registry entry's measurement.
type Result struct {
	Name    string  `json:"name"`
	Metrics Metrics `json:"metrics"`
}

// Report is one run of the registry. GOMAXPROCS and NumCPU record the
// host the timings come from.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	Entries       []Result `json:"entries"`
}

// Lookup returns the metrics of the named entry.
func (r *Report) Lookup(name string) (Metrics, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e.Metrics, true
		}
	}
	return nil, false
}

// Load reads a report. It rejects another schema version, a report
// with no entries, and a metric the rule table does not know.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("parse %s: schema_version %d, want %d", path, r.SchemaVersion, SchemaVersion)
	}
	if len(r.Entries) == 0 {
		return nil, fmt.Errorf("parse %s: no entries in report", path)
	}
	for _, e := range r.Entries {
		for m := range e.Metrics {
			if ruleFor(m) == nil {
				return nil, fmt.Errorf("parse %s: %s: unknown metric %q", path, e.Name, m)
			}
		}
	}
	return &r, nil
}

const (
	// nsTolerance is the allowed ns/op growth as a fraction of the
	// baseline: timings are noisy, everything else is not.
	nsTolerance = 0.10
	// gapSlackPct is the allowed growth of the search's optimality gap,
	// in percentage points.
	gapSlackPct = 0.5
)

// rule is one row of the comparison table: a metric passes when ok
// holds for its baseline and current values.
type rule struct {
	metric string
	want   string
	ok     func(base, cur float64) bool
}

// rules is the fixed comparison table. Allocation counts, full
// simulations and the search outcome are pure functions of the code
// and its pinned seeds, so they tolerate nothing beyond the gap slack.
var rules = []rule{
	{"ns_per_op", "<= base +10%", func(base, cur float64) bool { return cur <= base*(1+nsTolerance) }},
	{"allocs_per_op", "<= base", func(base, cur float64) bool { return cur <= base }},
	{"full_sims", "<= base", func(base, cur float64) bool { return cur <= base }},
	{"gap_pct", "<= base + 0.5", func(base, cur float64) bool { return cur <= base+gapSlackPct }},
	{"warm_identical", "1 (true)", func(_, cur float64) bool { return cur >= 1 }},
	{"memo_warm_hits", "> 0", func(_, cur float64) bool { return cur > 0 }},
}

func ruleFor(metric string) *rule {
	for i := range rules {
		if rules[i].metric == metric {
			return &rules[i]
		}
	}
	return nil
}

// Regression is one baseline entry or metric the current report fails.
// Metric is empty when the whole entry is missing.
type Regression struct {
	Entry, Metric string
	Base, Cur     float64
	Want          string // the broken rule, or "present" when missing
}

func (r Regression) String() string {
	switch {
	case r.Metric == "":
		return fmt.Sprintf("%s: missing from the current report", r.Entry)
	case r.Want == "present":
		return fmt.Sprintf("%s: %s missing from the current report", r.Entry, r.Metric)
	}
	return fmt.Sprintf("%s: %s %s -> %s, want %s", r.Entry, r.Metric, Num(r.Base), Num(r.Cur), r.Want)
}

// Num formats a metric value without exponent notation.
func Num(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Compare holds cur to every baseline entry's metrics under the rule
// table and returns every regression, in baseline order. A baseline
// entry or metric missing from cur fails; entries only cur has are
// ignored, so a new benchmark can run before it joins the baseline.
func Compare(cur, base *Report) []Regression {
	var regs []Regression
	for _, b := range base.Entries {
		c, ok := cur.Lookup(b.Name)
		if !ok {
			regs = append(regs, Regression{Entry: b.Name, Want: "present"})
			continue
		}
		for _, r := range rules {
			bv, ok := b.Metrics[r.metric]
			if !ok {
				continue
			}
			cv, ok := c[r.metric]
			switch {
			case !ok:
				regs = append(regs, Regression{Entry: b.Name, Metric: r.metric, Base: bv, Want: "present"})
			case !r.ok(bv, cv):
				regs = append(regs, Regression{Entry: b.Name, Metric: r.metric, Base: bv, Cur: cv, Want: r.want})
			}
		}
	}
	return regs
}
