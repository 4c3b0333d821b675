package ledger

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func report(entries ...Result) *Report {
	return &Report{SchemaVersion: SchemaVersion, GOMAXPROCS: 1, NumCPU: 1, Entries: entries}
}

func TestCompare(t *testing.T) {
	timing := func(ns, allocs float64) Metrics { return Metrics{"ns_per_op": ns, "allocs_per_op": allocs} }
	search := func(sims, gap, hits, identical float64) Metrics {
		return Metrics{"full_sims": sims, "gap_pct": gap, "memo_warm_hits": hits, "warm_identical": identical}
	}
	baseSearch := report(Result{"s", search(17, 0, 17, 1)})
	cases := []struct {
		name      string
		cur, base *Report
		want      []string // "entry/metric" of each regression, in order
	}{
		{"timing_within_limits",
			report(Result{"a", timing(1099, 3)}, Result{"b", timing(450, 0)}, Result{"new", timing(9999, 99)}),
			report(Result{"a", timing(1000, 3)}, Result{"b", timing(500, 0)}),
			nil},
		{"ns_per_op_growth",
			report(Result{"a", timing(1101, 3)}), report(Result{"a", timing(1000, 3)}),
			[]string{"a/ns_per_op"}},
		{"any_alloc_growth",
			report(Result{"a", timing(900, 1)}), report(Result{"a", timing(1000, 0)}),
			[]string{"a/allocs_per_op"}},
		{"missing_entry",
			report(Result{"a", timing(1000, 0)}),
			report(Result{"a", timing(1000, 0)}, Result{"gone", timing(10, 0)}),
			[]string{"gone/"}},
		{"missing_metric",
			report(Result{"s", Metrics{"gap_pct": 0, "memo_warm_hits": 17, "warm_identical": 1}}), baseSearch,
			[]string{"s/full_sims"}},
		{"search_unchanged", baseSearch, baseSearch, nil},
		{"search_within_limits", report(Result{"s", search(16, 0.5, 1, 1)}), baseSearch, nil},
		{"full_sims_growth", report(Result{"s", search(18, 0, 17, 1)}), baseSearch, []string{"s/full_sims"}},
		{"gap_past_slack", report(Result{"s", search(17, 0.51, 17, 1)}), baseSearch, []string{"s/gap_pct"}},
		{"warm_not_identical", report(Result{"s", search(17, 0, 17, 0)}), baseSearch, []string{"s/warm_identical"}},
		{"no_memo_warm_hits", report(Result{"s", search(17, 0, 0, 1)}), baseSearch, []string{"s/memo_warm_hits"}},
		{"every_regression_reported",
			report(Result{"a", timing(2000, 1)}, Result{"s", search(18, 1, 0, 0)}),
			report(Result{"a", timing(1000, 0)}, Result{"gone", timing(1, 0)}, Result{"s", search(17, 0, 17, 1)}),
			[]string{"a/ns_per_op", "a/allocs_per_op", "gone/", "s/full_sims", "s/gap_pct", "s/warm_identical", "s/memo_warm_hits"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs := Compare(tc.cur, tc.base)
			var got []string
			for _, r := range regs {
				got = append(got, r.Entry+"/"+r.Metric)
				if r.String() == "" {
					t.Errorf("empty message for %+v", r)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("regressions %v, want %v (%v)", got, tc.want, regs)
			}
		})
	}
}

func TestLoad(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	r, err := Load(write(`{"schema_version": 1, "gomaxprocs": 1, "num_cpu": 2,
		"entries": [{"name": "a", "metrics": {"ns_per_op": 7, "allocs_per_op": 9}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := r.Lookup("a"); !ok || m["ns_per_op"] != 7 || m["allocs_per_op"] != 9 || r.NumCPU != 2 {
		t.Fatalf("bad round-trip: %+v", r)
	}
	for name, body := range map[string]string{
		"wrong schema_version": `{"schema_version": 2, "entries": [{"name": "a", "metrics": {"ns_per_op": 7}}]}`,
		"no schema_version":    `{"entries": [{"name": "a", "metrics": {"ns_per_op": 7}}]}`,
		"empty report":         `{"schema_version": 1, "entries": []}`,
		"unknown metric":       `{"schema_version": 1, "entries": [{"name": "a", "metrics": {"bytes_per_op": 7}}]}`,
		"not JSON":             `{`,
	} {
		if _, err := Load(write(body)); err == nil {
			t.Errorf("%s: Load accepted %s", name, body)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("want error for a missing file")
	}
}

// TestBaselineMatchesRegistry keeps the committed baseline and the
// registry in step: every baseline entry must be defined exactly once,
// so a dropped or renamed benchmark fails here, not only in the gate.
func TestBaselineMatchesRegistry(t *testing.T) {
	base, err := Load(filepath.Join("..", "..", "results", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]int{}
	for _, e := range Registry {
		defined[e.Name]++
	}
	for _, b := range base.Entries {
		if n := defined[b.Name]; n != 1 {
			t.Errorf("baseline entry %s is defined %d times in the registry, want 1", b.Name, n)
		}
	}
}

// BenchmarkLedger times every timing entry of the benchmark ledger, the
// same bodies `besst-bench -ledger` gates against the committed
// baseline.
func BenchmarkLedger(b *testing.B) {
	for _, e := range Registry {
		if e.Bench != nil {
			b.Run(e.Name, e.Bench)
		}
	}
}
