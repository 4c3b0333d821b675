package benchdata

import (
	"encoding/json"
	"fmt"
	"os"
)

// Parallel-scaling benchmark reports and the comparator behind
// `make bench-parallel`. besst-bench -parbench writes a ParallelReport
// for the serial-vs-parallel tiers (Monte Carlo replication and the
// DSE sweep); the comparator diffs a fresh
// report against the committed baseline and fails on ns/op growth
// beyond the tolerance or on parallel speedup dropping below the
// baseline's. Speedup is only comparable when both reports were taken
// on hardware that can actually scale (ScalingValid), so a single-core
// CI runner degrades to the ns/op gate instead of failing spuriously —
// and a baseline recorded on valid hardware refuses certification from
// an invalid current run rather than letting the floor silently lapse.

// ParallelEntry is one serial or parallel benchmark measurement.
type ParallelEntry struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// ParallelReport is the machine-readable output of besst-bench
// -parbench. ScalingValid records whether the measurement environment
// could exhibit real parallel speedup: GOMAXPROCS pinned to at least
// the worker count AND that many physical CPUs actually present. The
// harness refuses to certify speedups from a misleading configuration
// (the original snapshot was recorded with gomaxprocs 1, making its
// ~1.0x "speedups" meaningless).
type ParallelReport struct {
	GOMAXPROCS       int             `json:"gomaxprocs"`
	NumCPU           int             `json:"num_cpu"`
	Workers          int             `json:"workers"`
	MCReplications   int             `json:"mc_replications"`
	ScalingValid     bool            `json:"scaling_valid"`
	IdenticalResults bool            `json:"identical_results"`
	Benchmarks       []ParallelEntry `json:"benchmarks"`
}

// Lookup returns the entry with the given benchmark name.
func (r *ParallelReport) Lookup(name string) (ParallelEntry, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return ParallelEntry{}, false
}

// LoadParallel reads a report written by besst-bench -parbench.
func LoadParallel(path string) (*ParallelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ParallelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("parse %s: no benchmarks in report", path)
	}
	return &r, nil
}

// ParallelRegression describes one way the current report is worse than
// the committed baseline allows.
type ParallelRegression struct {
	Name   string // benchmark name ("" for report-level failures)
	Metric string // "ns/op", "speedup", "missing", "identical-results", "scaling-validity"
	BaseNs int64
	CurNs  int64
	BaseX  float64
	CurX   float64
	Detail string
}

func (r ParallelRegression) String() string {
	switch r.Metric {
	case "missing":
		return fmt.Sprintf("%s: benchmark missing from current report", r.Name)
	case "identical-results":
		return "parallel results diverge from serial results"
	case "scaling-validity":
		return r.Detail
	case "speedup":
		return fmt.Sprintf("%s: speedup %.2fx -> %.2fx (%s)", r.Name, r.BaseX, r.CurX, r.Detail)
	}
	return fmt.Sprintf("%s: %s %d -> %d (%s)", r.Name, r.Metric, r.BaseNs, r.CurNs, r.Detail)
}

// CompareParallel diffs cur against base. Failures:
//
//   - cur does not reproduce serial results bit-identically
//     (IdenticalResults false) — correctness trumps speed;
//   - a baseline benchmark is missing from cur;
//   - any benchmark's ns/op exceeds the baseline by more than nsTolPct
//     percent;
//   - when both reports are ScalingValid: a parallel benchmark's
//     speedup-vs-serial drops below the baseline's by more than the
//     same tolerance;
//   - the baseline is ScalingValid but cur is not — a misleading
//     configuration must not launder away the committed speedup floor.
//
// Allocation counts are deliberately not gated here: these tiers run
// whole campaigns with worker pools, where allocs/op is load-dependent
// rather than deterministic (the hot-path gate owns that property).
func CompareParallel(cur, base *ParallelReport, nsTolPct float64) []ParallelRegression {
	var regs []ParallelRegression
	if !cur.IdenticalResults {
		regs = append(regs, ParallelRegression{Metric: "identical-results"})
	}
	if base.ScalingValid && !cur.ScalingValid {
		regs = append(regs, ParallelRegression{
			Metric: "scaling-validity",
			Detail: fmt.Sprintf("baseline was recorded on scaling-valid hardware (gomaxprocs %d, %d CPUs); current run is not (gomaxprocs %d, %d CPUs)",
				base.GOMAXPROCS, base.NumCPU, cur.GOMAXPROCS, cur.NumCPU),
		})
	}
	checkSpeedup := base.ScalingValid && cur.ScalingValid
	for _, b := range base.Benchmarks {
		c, ok := cur.Lookup(b.Name)
		if !ok {
			regs = append(regs, ParallelRegression{Name: b.Name, Metric: "missing"})
			continue
		}
		limit := float64(b.NsPerOp) * (1 + nsTolPct/100)
		if float64(c.NsPerOp) > limit {
			regs = append(regs, ParallelRegression{
				Name: b.Name, Metric: "ns/op", BaseNs: b.NsPerOp, CurNs: c.NsPerOp,
				Detail: fmt.Sprintf("limit %.0f at +%.0f%%", limit, nsTolPct),
			})
		}
		if checkSpeedup && b.SpeedupVsSerial > 0 {
			floor := b.SpeedupVsSerial * (1 - nsTolPct/100)
			if c.SpeedupVsSerial < floor {
				regs = append(regs, ParallelRegression{
					Name: b.Name, Metric: "speedup", BaseX: b.SpeedupVsSerial, CurX: c.SpeedupVsSerial,
					Detail: fmt.Sprintf("floor %.2fx at -%.0f%%", floor, nsTolPct),
				})
			}
		}
	}
	return regs
}
