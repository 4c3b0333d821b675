package benchdata

import (
	"os"
	"path/filepath"
	"testing"
)

func validReport() *ParallelReport {
	return &ParallelReport{
		GOMAXPROCS: 4, NumCPU: 4, Workers: 4, MCReplications: 32,
		ScalingValid: true, IdenticalResults: true,
		Benchmarks: []ParallelEntry{
			{Name: "MonteCarloDirect/serial", Workers: 1, NsPerOp: 1000},
			{Name: "MonteCarloDirect/parallel", Workers: 4, NsPerOp: 400, SpeedupVsSerial: 2.5},
		},
	}
}

func TestCompareParallelClean(t *testing.T) {
	if regs := CompareParallel(validReport(), validReport(), 10); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %v", regs)
	}
}

func TestCompareParallelNsRegression(t *testing.T) {
	cur := validReport()
	cur.Benchmarks[0].NsPerOp = 1200 // +20% > 10% tolerance
	regs := CompareParallel(cur, validReport(), 10)
	if len(regs) != 1 || regs[0].Metric != "ns/op" || regs[0].Name != "MonteCarloDirect/serial" {
		t.Fatalf("regressions = %v, want one ns/op entry", regs)
	}
	// Within tolerance: no regression.
	cur.Benchmarks[0].NsPerOp = 1090
	if regs := CompareParallel(cur, validReport(), 10); len(regs) != 0 {
		t.Fatalf("+9%% flagged at 10%% tolerance: %v", regs)
	}
}

func TestCompareParallelSpeedupFloor(t *testing.T) {
	cur := validReport()
	cur.Benchmarks[1].SpeedupVsSerial = 1.1 // far below the 2.5x baseline
	cur.Benchmarks[1].NsPerOp = 420         // ns/op itself within tolerance
	regs := CompareParallel(cur, validReport(), 10)
	if len(regs) != 1 || regs[0].Metric != "speedup" {
		t.Fatalf("regressions = %v, want one speedup entry", regs)
	}
}

func TestCompareParallelSpeedupSkippedWhenInvalidBoth(t *testing.T) {
	base, cur := validReport(), validReport()
	base.ScalingValid, cur.ScalingValid = false, false
	cur.Benchmarks[1].SpeedupVsSerial = 0.9
	if regs := CompareParallel(cur, base, 10); len(regs) != 0 {
		t.Fatalf("speedup gated on non-scaling hardware: %v", regs)
	}
}

func TestCompareParallelScalingValidityLapse(t *testing.T) {
	cur := validReport()
	cur.ScalingValid = false
	cur.Benchmarks[1].SpeedupVsSerial = 0.9 // must not be judged, but the lapse itself fails
	regs := CompareParallel(cur, validReport(), 10)
	if len(regs) != 1 || regs[0].Metric != "scaling-validity" {
		t.Fatalf("regressions = %v, want one scaling-validity entry", regs)
	}
}

func TestCompareParallelDivergentResults(t *testing.T) {
	cur := validReport()
	cur.IdenticalResults = false
	regs := CompareParallel(cur, validReport(), 10)
	if len(regs) != 1 || regs[0].Metric != "identical-results" {
		t.Fatalf("regressions = %v, want one identical-results entry", regs)
	}
}

func TestCompareParallelMissingBenchmark(t *testing.T) {
	cur := validReport()
	cur.Benchmarks = cur.Benchmarks[:1]
	regs := CompareParallel(cur, validReport(), 10)
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Name != "MonteCarloDirect/parallel" {
		t.Fatalf("regressions = %v, want one missing entry", regs)
	}
}

func TestLoadParallelRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "par.json")
	if err := os.WriteFile(path, []byte(`{
		"gomaxprocs": 4, "num_cpu": 4, "workers": 4,
		"scaling_valid": true, "identical_results": true,
		"benchmarks": [{"name": "x/serial", "workers": 1, "ns_per_op": 5}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadParallel(path)
	if err != nil {
		t.Fatalf("LoadParallel: %v", err)
	}
	if !r.ScalingValid || len(r.Benchmarks) != 1 || r.Benchmarks[0].NsPerOp != 5 {
		t.Fatalf("round-trip mismatch: %+v", r)
	}
	if _, ok := r.Lookup("x/serial"); !ok {
		t.Fatal("Lookup missed present benchmark")
	}
	if err := os.WriteFile(path, []byte(`{"benchmarks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallel(path); err == nil {
		t.Fatal("empty report loaded without error")
	}
}
